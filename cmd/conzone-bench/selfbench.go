package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/emubench"
	"github.com/conzone/conzone/internal/experiments"
	"github.com/conzone/conzone/internal/units"
)

// selfBenchResult is one throughput benchmark's outcome in the exported
// BENCH_emulator.json. ns/op is wall-clock host time per workload step (one
// 4 KiB I/O plus any wrap reset or forced flush the workload calls for) —
// the emulator-speed metric the ROADMAP gates on, not virtual time.
type selfBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MiBPerSec   float64 `json:"mib_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// selfBenchReport is the schema of BENCH_emulator.json: environment header
// plus one entry per benchmark. Performance PRs regenerate the file with
// `conzone-bench -exp selfbench -json BENCH_emulator.json`; it is a trajectory
// across machines, not a gate.
type selfBenchReport struct {
	Date      string            `json:"date"`
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	Results   []selfBenchResult `json:"results"`
}

// runBenchmark measures one spec through testing.Benchmark and folds the
// result into the baseline schema.
func runBenchmark(spec emubench.Spec) selfBenchResult {
	res := testing.Benchmark(emubench.Bench(spec))
	nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
	mibps := 0.0
	if nsPerOp > 0 {
		// One workload step moves one 4 KiB sector.
		mibps = float64(units.Sector) / nsPerOp * 1e9 / float64(units.MiB)
	}
	return selfBenchResult{
		Name:        spec.Name(),
		Iterations:  res.N,
		NsPerOp:     nsPerOp,
		MiBPerSec:   mibps,
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// runSelfBench measures the emulator's own wall-clock throughput: every
// emubench spec (seqwrite, randread, randwrite, gcheavy at QD 1 and 16) is
// run through testing.Benchmark, on emubench's own device rather than the
// caller's configuration. The JSON artifact is the machine-readable
// trajectory file.
func runSelfBench(config.DeviceConfig, experiments.Options) (experiments.Report, error) {
	doc := selfBenchReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	t := experiments.Table{Header: []string{"benchmark", "iters", "ns/op", "MiB/s", "B/op", "allocs/op"}}
	for _, spec := range emubench.Specs() {
		r := runBenchmark(spec)
		doc.Results = append(doc.Results, r)
		t.Add(r.Name, r.Iterations, fmt.Sprintf("%.1f", r.NsPerOp), fmt.Sprintf("%.1f", r.MiBPerSec), r.BytesPerOp, r.AllocsPerOp)
	}
	return experiments.Report{
		Title:     "Emulator self-benchmark: wall-clock cost per emulated 4 KiB I/O",
		Tables:    []experiments.Table{t},
		Pass:      true,
		Artifacts: map[string]func(io.Writer) error{"json": experiments.JSON(doc)},
	}, nil
}
