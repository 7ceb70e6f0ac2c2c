// Command conzone-bench regenerates the tables and figures of the ConZone
// paper's evaluation (§IV) and prints them next to the paper's claims.
//
//	conzone-bench [-exp NAME] [-quick] [-config file.json]
//
// NAME is "all" (the default: table1 table2 fig6a fig6b fig7 fig8 ablations
// emulators, the order of §IV) or one experiment — one of those, or
//
//	qd          queue depths 1-16 through the async host interface  [-metrics-json F]
//	faults      healthy vs fault-injected device                    [-fault-seed N]
//	crash       power cut, remount, verify durability, 8 seeds      [-fault-seed N]
//	zonelife    finish latency vs fullness, reset/read interference
//	metrics     instrumented workload as Prometheus text            [-metrics-json F] [-chrome F]
//	timeseries  WAF/GC series, sampled every 5 ms of virtual time   [-series-jsonl F] [-series-csv F]
//	selfbench   the emulator's wall-clock ns per emulated I/O       [-json BENCH_emulator.json]
//
// An experiment is a value that returns a Report (internal/experiments); this
// command selects, runs and prints them, and exits non-zero when a Report's
// claims did not hold or an output flag names what the selected experiment
// does not produce. -cpuprofile/-memprofile write pprof profiles of the run.
// selfbench's JSON is a trajectory across machines: regressions are judged on
// bench/ (interleaved parent/change pairs on one machine), not against it.
// The live scrape endpoint is cmd/conzone-serve.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/experiments"
)

// outputFlags are the path flags; each is a key of experiments.Report.Artifacts.
var outputFlags = []struct{ name, usage string }{
	{"metrics-json", "-exp metrics or qd: write the JSON results to this file"},
	{"chrome", "-exp metrics: write the simulated timeline as a Chrome Trace Event file (chrome://tracing, https://ui.perfetto.dev)"},
	{"series-jsonl", "-exp timeseries: write the sample series as JSON Lines to this file"},
	{"series-csv", "-exp timeseries: write the sample series as CSV to this file"},
	{"json", "-exp selfbench: write the results to this file (e.g. BENCH_emulator.json)"},
}

// local is the one experiment outside internal/experiments: selfbench spends
// about 20 s of wall clock in testing.Benchmark and reports that wall clock,
// not virtual time, so no test runs it.
var local = []experiments.Experiment{
	{Name: "selfbench", Artifacts: []string{"json"}, Run: runSelfBench},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != errFlags {
			fmt.Fprintln(os.Stderr, "conzone-bench:", err)
		}
		os.Exit(1)
	}
}

// errFlags is a command line the flag package refused and has already
// reported on stderr.
var errFlags = errors.New("bad command line")

// run is main with its arguments and streams as values.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("conzone-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, or one name (an unknown name lists them)")
	quick := fs.Bool("quick", false, "reduced I/O volumes for a fast run")
	cfgPath := fs.String("config", "", "device configuration JSON (default: the paper's §IV-A setup)")
	faultSeed := fs.Uint64("fault-seed", 1, "-exp faults or crash: fault model and power-cut RNG seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	paths := map[string]*string{}
	for _, o := range outputFlags {
		paths[o.name] = fs.String(o.name, "", o.usage)
	}
	if err := fs.Parse(args); err != nil {
		return errFlags
	}

	var selected []experiments.Experiment
	names, produced := []string{"all"}, map[string]bool{}
	for _, e := range append(experiments.All(*faultSeed), local...) {
		names = append(names, e.Name)
		if e.Name == *exp || (*exp == "all" && e.InSuite) {
			selected = append(selected, e)
			for _, name := range e.Artifacts {
				produced[name] = true
			}
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (have: %s)", *exp, strings.Join(names, " "))
	}
	for _, o := range outputFlags {
		if *paths[o.name] != "" && !produced[o.name] {
			return fmt.Errorf("-%s: -exp %s does not produce it", o.name, *exp)
		}
	}

	cfg := config.Paper()
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}
	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}

	return profiled(*cpuprofile, *memprofile, func() error {
		var failed []string
		took := make([]time.Duration, len(selected))
		began := time.Now()
		for i, e := range selected {
			t0 := time.Now()
			rep, err := e.Run(cfg, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if err := rep.Print(stdout); err != nil {
				return err
			}
			for _, o := range outputFlags {
				if write := rep.Artifacts[o.name]; write != nil && *paths[o.name] != "" {
					if err := writeFile(*paths[o.name], write); err != nil {
						return err
					}
					fmt.Fprintln(stdout, "wrote", *paths[o.name])
				}
			}
			if !rep.Pass {
				failed = append(failed, e.Name)
			}
			took[i] = time.Since(t0)
		}
		if *exp == "all" {
			// What the run cost goes to stderr, after the last table, so
			// stdout stays diffable between runs.
			for i, e := range selected {
				fmt.Fprintf(stderr, "wall time: %-9s %7.3fs\n", e.Name, took[i].Seconds())
			}
			fmt.Fprintf(stderr, "wall time: %-9s %7.3fs\n", "suite", time.Since(began).Seconds())
		}
		if len(failed) > 0 {
			return fmt.Errorf("claims not reproduced: %s", strings.Join(failed, ", "))
		}
		return nil
	})
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiled runs body under the pprof profiles asked for.
func profiled(cpu, mem string, body func() error) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := body(); err != nil {
		return err
	}
	if mem == "" {
		return nil
	}
	runtime.GC() // flush accumulated allocations into the profile
	return writeFile(mem, pprof.WriteHeapProfile)
}
