// Command conzone-bench regenerates the tables and figures of the ConZone
// paper's evaluation (§IV) and prints them next to the paper's claims.
//
// Usage:
//
//	conzone-bench [-exp all|table1|table2|fig6a|fig6b|fig7|fig8|ablations] [-quick] [-config file.json]
//	conzone-bench -metrics [-metrics-json tel.json] [-chrome trace.json]
//	conzone-bench -qd 1,2,4,8,16 [-quick] [-metrics-json sweep.json]
//	conzone-bench -faults [-fault-seed 7] [-quick]
//	conzone-bench -crash [-crash-seeds 8] [-crash-ops 600] [-fault-seed 7] [-quick]
//	conzone-bench -timeseries [-sample-interval 5ms] [-series-jsonl s.jsonl] [-series-csv s.csv] [-quick]
//	conzone-bench -selfbench [-json BENCH_emulator.json]
//
// Any mode accepts -cpuprofile/-memprofile to write pprof profiles of the
// run. -selfbench measures the emulator's own wall-clock throughput (ns per
// emulated 4 KiB I/O) over the internal/emubench workload family; the JSON
// output is the schema of the repo-root BENCH_emulator.json trajectory file.
// Regressions are judged on bench/ (interleaved parent/change pairs on one
// machine), not against that file. The live scrape endpoint is
// cmd/conzone-serve.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/experiments"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig6a, fig6b, fig7, fig8, ablations")
	quick := flag.Bool("quick", false, "reduced I/O volumes for a fast run")
	cfgPath := flag.String("config", "", "device configuration JSON (default: the paper's §IV-A setup)")
	metrics := flag.Bool("metrics", false, "run an instrumented workload and print Prometheus-style lifecycle metrics")
	metricsJSON := flag.String("metrics-json", "", "with -metrics or -qd: also write the JSON results to this file")
	chromeOut := flag.String("chrome", "", "with -metrics: also write the simulated timeline as a Chrome Trace Event file")
	qd := flag.String("qd", "", "comma-separated queue depths to sweep through the async host interface (e.g. 1,2,4,8,16)")
	faults := flag.Bool("faults", false, "benchmark with the NAND fault model enabled and report fault/recovery statistics")
	faultSeed := flag.Uint64("fault-seed", 1, "with -faults: fault model RNG seed")
	crash := flag.Bool("crash", false, "run the crash-remount differential fuzzer (power cut at a seeded instant, remount, verify durability)")
	zonelife := flag.Bool("zonelife", false, "characterize zone management: finish-latency-vs-fullness curve and reset/read interference (self-checking)")
	crashSeeds := flag.Int("crash-seeds", 8, "with -crash: how many seeds to run")
	crashOps := flag.Int("crash-ops", 600, "with -crash: ops per generated sequence")
	timeseries := flag.Bool("timeseries", false, "sample a sustained random-write workload on the virtual clock and print the WAF/GC series")
	sampleEvery := flag.Duration("sample-interval", 5*time.Millisecond, "with -timeseries: virtual-time sample interval")
	seriesJSONL := flag.String("series-jsonl", "", "with -timeseries: write the sample series as JSON Lines to this file")
	seriesCSV := flag.String("series-csv", "", "with -timeseries: write the sample series as CSV to this file")
	selfbench := flag.Bool("selfbench", false, "measure the emulator's own wall-clock throughput (ns per emulated I/O)")
	jsonOut := flag.String("json", "", "with -selfbench: write the results to this file (e.g. BENCH_emulator.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *selfbench {
		if err := runSelfBench(*jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	cfg := config.Paper()
	if *cfgPath != "" {
		var err error
		cfg, err = config.Load(*cfgPath)
		if err != nil {
			fatal(err)
		}
	}
	if *metrics {
		if err := runMetrics(cfg, *metricsJSON, *chromeOut); err != nil {
			fatal(err)
		}
		return
	}
	if *timeseries {
		err := runTimeseries(cfg, tsOptions{
			jsonl:    *seriesJSONL,
			csv:      *seriesCSV,
			interval: *sampleEvery,
			quick:    *quick,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	if *qd != "" {
		depths, err := parseDepths(*qd)
		if err != nil {
			fatal(err)
		}
		if err := runQDSweep(cfg, depths, *metricsJSON, *quick); err != nil {
			fatal(err)
		}
		return
	}
	if *faults {
		if err := runFaults(cfg, *faultSeed, *quick); err != nil {
			fatal(err)
		}
		return
	}
	if *zonelife {
		if err := runZoneLife(cfg, *quick); err != nil {
			fatal(err)
		}
		return
	}
	if *crash {
		n := *crashOps
		if *quick {
			n = 200
		}
		if err := runCrash(*faultSeed, *crashSeeds, n); err != nil {
			fatal(err)
		}
		return
	}
	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}

	runners := map[string]func(config.DeviceConfig, experiments.Options) error{
		"table1":    func(config.DeviceConfig, experiments.Options) error { return runTable1() },
		"table2":    func(c config.DeviceConfig, _ experiments.Options) error { return runTable2(c) },
		"fig6a":     runFig6a,
		"fig6b":     runFig6b,
		"fig7":      runFig7,
		"fig8":      runFig8,
		"ablations": runAblations,
		"emulators": runEmulators,
	}
	order := []string{"table1", "table2", "fig6a", "fig6b", "fig7", "fig8", "ablations", "emulators"}

	if *exp == "all" {
		// What the run cost goes to stderr, after the last table, so stdout
		// stays diffable between runs.
		took := make([]time.Duration, len(order))
		began := time.Now()
		for i, name := range order {
			t0 := time.Now()
			if err := runners[name](cfg, opt); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			took[i] = time.Since(t0)
		}
		suite := time.Since(began)
		for i, name := range order {
			fmt.Fprintf(os.Stderr, "wall time: %-9s %7.3fs\n", name, took[i].Seconds())
		}
		fmt.Fprintf(os.Stderr, "wall time: %-9s %7.3fs\n", "suite", suite.Seconds())
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if err := run(cfg, opt); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conzone-bench:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runTable1() error {
	header("Table I: emulator capabilities")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Feature\tFEMU\tConfZNS\tNVMeVirt\tConZone\tthis repo")
	for _, r := range experiments.RunTable1() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Feature, r.FEMU, r.ConfZNS, r.NVMeVirt, r.ConZone, r.ThisRepo)
	}
	return w.Flush()
}

func runTable2(cfg config.DeviceConfig) error {
	header("Table II: media latencies")
	rows, err := experiments.RunTable2(cfg)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Media\tOp\tpaper\tmeasured\tof which transfer")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\n", r.Media, r.Op, r.Paper, r.Measured, r.TransferOverhead)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := experiments.VerifyTable2(rows); err != nil {
		return err
	}
	fmt.Println("timing model matches Table II exactly (plus stated transfers)")
	return nil
}

func runFig6a(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Fig. 6(a): 512 KiB sequential bandwidth (MiB/s)")
	res, err := experiments.RunFig6a(cfg, opt)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Series\twrite ST\twrite MT\tread ST\tread MT")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n", r.Series, r.WriteST, r.WriteMT, r.ReadST, r.ReadMT)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printChecks(res.Checks, res.Pass)
	return nil
}

func runFig6b(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Fig. 6(b): write-buffer conflicts (48 KiB dual-zone writes)")
	res, err := experiments.RunFig6b(cfg, opt)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Case\tbandwidth MiB/s\tWAF\tbuffer evictions")
	fmt.Fprintf(w, "conflict (same parity)\t%.0f\t%.3f\t%d\n", res.ConflictBW, res.ConflictWAF, res.ConflictEvictions)
	fmt.Fprintf(w, "no conflict\t%.0f\t%.3f\t%d\n", res.NoConflictBW, res.NoConflictWAF, res.NoConflictEvictions)
	if err := w.Flush(); err != nil {
		return err
	}
	printChecks(res.Checks, res.Pass)
	return nil
}

func runFig7(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Fig. 7: mapping mechanisms under 4 KiB random reads")
	res, err := experiments.RunFig7(cfg, opt)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mapping\trange\tKIOPS\tp99\tL2P miss")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%v\t%.1f%%\n",
			p.Mapping, units.FormatBytes(p.Range), p.KIOPS, p.P99, p.MissRatio*100)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printChecks(res.Checks, res.Pass)
	return nil
}

func runFig8(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Fig. 8: L2P search strategies at ~27.4% miss rate")
	res, err := experiments.RunFig8(cfg, opt)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Strategy\tKIOPS\tp99\tmiss rate")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%.1f\t%v\t%.1f%%\n", p.Strategy, p.KIOPS, p.P99, p.MissRatio*100)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	printChecks(res.Checks, res.Pass)
	return nil
}

func runAblations(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Ablations (DESIGN.md §5)")
	type runner func(config.DeviceConfig, experiments.Options) (experiments.AblationResult, error)
	for _, r := range []runner{
		experiments.RunAblationChannelBW,
		experiments.RunAblationDedicatedBuffers,
		experiments.RunAblationCombine,
		experiments.RunAblationZoneAggregation,
		experiments.RunAblationL2PLog,
	} {
		res, err := r(cfg, opt)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s: %s -> %s\n", res.Name, res.Baseline, res.Variant)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "metric\tbaseline\tvariant")
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names) // map order would make two runs' tables differ
		for _, k := range names {
			v := res.Metrics[k]
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", k, v[0], v[1])
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func runEmulators(cfg config.DeviceConfig, opt experiments.Options) error {
	header("Table I, dynamically: the emulators on a consumer workload")
	rows, err := experiments.RunEmulatorComparison(cfg, opt)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Emulator\tconflict write MiB/s\trandread KIOPS\tpremature flushes\tSLC path\tL2P cache")
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%s\t%s\t%s\n",
			r.Emulator, r.WriteBW, r.RandReadKIOPS,
			yn(r.ModelsPrematureFlush), yn(r.ModelsSLC), yn(r.ModelsL2PCache))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("only ConZone registers the consumer-specific internals (paper Table I)")
	return nil
}

// runMetrics drives an instrumented workload through the public Device API:
// conflicting dual-zone 48 KiB writes (premature flushes, SLC staging,
// combines), a flush, cold-cache random reads (map fetches, data reads) and
// a zone reset. Per-phase interval counters come from Stats.Delta; at the
// end the telemetry snapshot is printed as Prometheus text exposition, and
// optionally written as JSON and as a Chrome Trace Event file.
func runMetrics(cfg config.DeviceConfig, jsonPath, chromePath string) error {
	dev, err := conzone.Open(cfg)
	if err != nil {
		return err
	}
	dev.EnableObservation(0)

	const (
		ioBytes = 48 << 10 // the paper's Fig. 6(b) write size
		rounds  = 48
	)
	zb := dev.ZoneBytes()
	if int64(rounds)*ioBytes > zb {
		return fmt.Errorf("zone capacity %d too small for the metrics workload", zb)
	}
	buf := make([]byte, ioBytes)

	phase := func(name string, prev conzone.Stats) (conzone.Stats, error) {
		now := dev.Stats()
		d := now.Delta(prev)
		fmt.Printf("%-22s host %8s  premature %3d  staged %5d  combines %3d  map fetches %4d  WAF %.3f\n",
			name, units.FormatBytes(d.FTL.HostWrittenBytes+d.FTL.HostReadBytes),
			d.FTL.PrematureFlushes, d.FTL.StagedSectors, d.FTL.Combines, d.FTL.MapFetches, d.WAF)
		return now, nil
	}

	header("Lifecycle metrics workload (paper configuration)")
	snap := dev.Stats()
	// Zones 1 and 3 share a write buffer (zone mod 2): every alternation
	// evicts the other zone's partial data prematurely.
	for i := 0; i < rounds; i++ {
		off := int64(i) * ioBytes
		if err := dev.Write(1*zb+off, buf); err != nil {
			return err
		}
		if err := dev.Write(3*zb+off, buf); err != nil {
			return err
		}
	}
	if snap, err = phase("conflicting writes", snap); err != nil {
		return err
	}
	if err := dev.Flush(); err != nil {
		return err
	}
	if snap, err = phase("flush", snap); err != nil {
		return err
	}
	// Cold-cache random reads inside zone 1's written extent.
	rng := sim.NewRand(0)
	span := int64(rounds) * ioBytes
	for i := 0; i < 256; i++ {
		off := int64(rng.Uint64()) % (span / conzone.SectorSize)
		if off < 0 {
			off = -off
		}
		if _, err := dev.Read(1*zb+off*conzone.SectorSize, int(conzone.SectorSize)); err != nil {
			return err
		}
	}
	if snap, err = phase("random reads", snap); err != nil {
		return err
	}
	if err := dev.ResetZone(3); err != nil {
		return err
	}
	if _, err = phase("zone reset", snap); err != nil {
		return err
	}

	tel := dev.Telemetry()
	fmt.Println()
	if err := tel.WritePrometheus(os.Stdout); err != nil {
		return err
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tel.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote JSON telemetry snapshot to %s\n", jsonPath)
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tel.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s — open via chrome://tracing or https://ui.perfetto.dev\n",
			len(tel.Events), chromePath)
	}
	return nil
}

func printChecks(checks []string, pass bool) {
	for _, c := range checks {
		fmt.Println(" ", c)
	}
	if pass {
		fmt.Println("  => paper claims reproduced")
	} else {
		fmt.Println("  => SOME CLAIMS NOT REPRODUCED")
	}
}
