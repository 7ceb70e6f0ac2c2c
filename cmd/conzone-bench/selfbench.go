package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"text/tabwriter"
	"time"

	"github.com/conzone/conzone/internal/emubench"
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
// `conzone-bench -selfbench -json BENCH_emulator.json`; it is a trajectory
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
// run through testing.Benchmark, printed as a table, and optionally written
// to jsonPath as the machine-readable trajectory file.
func runSelfBench(jsonPath string) error {
	report := &selfBenchReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\titers\tns/op\tMiB/s\tB/op\tallocs/op")
	for _, spec := range emubench.Specs() {
		r := runBenchmark(spec)
		report.Results = append(report.Results, r)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%d\t%d\n",
			r.Name, r.Iterations, r.NsPerOp, r.MiBPerSec, r.BytesPerOp, r.AllocsPerOp)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
