// Package experiments regenerates every table and figure of the ConZone
// paper's evaluation (§IV) against the device models in this module. Each
// RunFigXX function builds fresh devices from a configuration, drives them
// with the paper's workload, and returns structured rows that the bench
// harness and the conzone-bench tool print; Claims from internal/refdata
// describe what shape the paper reports, and evaluate is the one place they
// are checked.
//
// The figures and the ablations beside them drive three workload shapes,
// each stated once by a constructor that takes a site's seed, volume and
// start instant:
//
//   - seqJob, §IV-B's 512 KiB sequential write and read: Fig. 6(a) (seeds
//     11 write, 13 read) and the channel-bandwidth ablation (31, 37);
//   - zoneWriteJob, Fig. 6(b)'s 48 KiB write from the start of chosen zones:
//     Fig. 6(b) (17), the dedicated-buffer (41), combine (43) and L2P-log
//     (47, one zone) ablations and the emulator comparison (53);
//   - randJob, §IV-D's 4 KiB random read after an unmeasured warm-up: Figs.
//     7 and 8 and the zone-aggregation ablation through runRandRead (23
//     warm-up, 29 measured) and the emulator comparison (59, no warm-up).
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Options scales the experiment workloads. Defaults reproduce the paper's
// proportions; the Quick preset shrinks volumes for CI-speed runs.
type Options struct {
	// WriteBytes is the per-thread volume of sequential-write jobs.
	WriteBytes int64
	// ReadRegion is the prefilled region sequential-read jobs scan.
	ReadRegion int64
	// ReadBytes is the per-thread volume of sequential-read jobs.
	ReadBytes int64
	// RandReadOps is the measured operation count of random-read jobs.
	RandReadOps int64
	// WarmupOps is the unmeasured random-read warm-up operation count.
	WarmupOps int64
	// PerOpOverhead models host-side submission cost (syscall + memcpy).
	PerOpOverhead time.Duration
	// ReadOverhead is the host-side cost per small read, which dominates
	// the gap between raw flash latency and end-to-end KIOPS.
	ReadOverhead time.Duration
}

// Default returns paper-scale options.
func Default() Options {
	return Options{
		WriteBytes:    256 * units.MiB,
		ReadRegion:    512 * units.MiB,
		ReadBytes:     256 * units.MiB,
		RandReadOps:   16384,
		WarmupOps:     8192,
		PerOpOverhead: 6 * time.Microsecond,
		ReadOverhead:  15 * time.Microsecond,
	}
}

// Quick returns reduced volumes for fast test runs.
func Quick() Options {
	o := Default()
	o.WriteBytes = 48 * units.MiB
	o.ReadRegion = 128 * units.MiB
	o.ReadBytes = 48 * units.MiB
	o.RandReadOps = 4096
	o.WarmupOps = 4096
	return o
}

// Reduced reports whether o asks for less than paper scale. The
// characterizations beside the paper's figures (qd, faults, crash, zonelife)
// have two sizes, not a volume per field, and pick by it.
func (o Options) Reduced() bool { return o.RandReadOps < Default().RandReadOps }

// The paper's block sizes: sequential I/O (§IV-B), Fig. 6(b)'s zone
// writes, and random reads (§IV-D).
const (
	seqBS  = 512 * units.KiB
	zoneBS = 48 * units.KiB
	randBS = 4 * units.KiB
)

// seqJob is §IV-B's shape: 512 KiB sequential I/O (p is SeqWrite or
// SeqRead) by jobs threads over [0, region), vol bytes (at most region)
// split evenly between them, from at. A write flushes at its end.
func seqJob(p workload.Pattern, jobs int, region, vol int64, opt Options, seed uint64, at sim.Time) workload.Job {
	return workload.Job{
		Name: p.String(), Pattern: p, BlockBytes: seqBS, NumJobs: jobs, RangeBytes: region,
		TotalBytesPerJob: units.AlignDown(min(vol, region)/int64(jobs), seqBS),
		PerOpOverhead:    opt.PerOpOverhead, FlushAtEnd: p.IsWrite(), Seed: seed, StartAt: at,
	}
}

// zoneWriteJob is Fig. 6(b)'s shape: 48 KiB sequential writes, one thread
// from the start of each of zones, vol bytes each, flushed at the end. Two
// zones that map to one write buffer conflict.
func zoneWriteJob(zd workload.Zoned, vol int64, opt Options, seed uint64, zones ...int) workload.Job {
	zoneBytes := zd.ZoneCapSectors() * units.Sector
	offsets := make([]int64, len(zones))
	for i, z := range zones {
		offsets[i] = int64(z) * zoneBytes
	}
	return workload.Job{
		Name: "zonewrite", Pattern: workload.SeqWrite, BlockBytes: zoneBS, NumJobs: len(zones),
		RangeBytes: int64(zd.NumZones()) * zoneBytes, ThreadOffsets: offsets,
		TotalBytesPerJob: units.AlignDown(vol, zoneBS),
		PerOpOverhead:    opt.PerOpOverhead, FlushAtEnd: true, Seed: seed,
	}
}

// randJob is §IV-D's shape: ops 4 KiB random reads by one thread over
// [off, off+rng), each paced by the host's per-read cost, from at. A figure
// runs it twice on one device: an unmeasured warm-up, then the measured pass.
func randJob(off, rng, ops int64, opt Options, seed uint64, at sim.Time) workload.Job {
	return workload.Job{
		Name: "randread", Pattern: workload.RandRead, BlockBytes: randBS, NumJobs: 1,
		OffsetBytes: off, RangeBytes: rng, TotalBytesPerJob: ops * randBS,
		PerOpOverhead: opt.ReadOverhead, Seed: seed, StartAt: at,
	}
}

// fitRegion clamps a byte region to the device capacity implied by cfg,
// rounded down to a zone multiple.
func fitRegion(cfg config.DeviceConfig, want int64) (int64, error) {
	f, err := cfg.NewConZone()
	if err != nil {
		return 0, err
	}
	zoneBytes := f.ZoneCapSectors() * units.Sector
	capBytes := f.TotalSectors() * units.Sector
	region := units.AlignDown(want, zoneBytes)
	if region > capBytes {
		region = units.AlignDown(capBytes, zoneBytes)
	}
	if region <= 0 {
		return 0, fmt.Errorf("experiments: region %d does not fit device of %d", want, capBytes)
	}
	return region, nil
}

// each runs fn(0) … fn(n-1) on up to runtime.GOMAXPROCS(0) goroutines and
// returns the error of the lowest-indexed call that failed, or nil. The
// calls are a figure's independent arms: each builds its own device and
// writes its result only into its own slot i of a slice the caller sized,
// and no package keeps mutable global state, so what the caller collects by
// index afterwards is what a serial loop would have produced, at any
// GOMAXPROCS.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evaluate is the one claim evaluator. Every claim a figure states is a band
// its measured value must lie in: first the paper's claims, each measured
// value keyed by claim ID, then the figure's own bands. Each line ends in
// the one verdict, OK or OFF; pass is whether every claim held.
func evaluate(claims []refdata.Claim, measured map[string]float64, bands ...band) (lines []string, pass bool) {
	all := make([]band, 0, len(claims)+len(bands))
	for _, c := range claims {
		m := measured[c.ID]
		all = append(all, inBand(m >= c.Value-c.Tolerance && m <= c.Value+c.Tolerance,
			"[%s] %s: paper=%.3f measured=%.3f (±%.3f)", c.ID, c.Statement, c.Value, m, c.Tolerance))
	}
	pass = true
	for _, b := range append(all, bands...) {
		verdict := "OK"
		if !b.ok {
			verdict, pass = "OFF", false
		}
		lines = append(lines, b.text+" "+verdict)
	}
	return lines, pass
}

// band is one claim line before its verdict, and whether the claim held.
type band struct {
	text string
	ok   bool
}

func inBand(ok bool, format string, args ...any) band {
	return band{fmt.Sprintf(format, args...), ok}
}
