// Command bench is the repository's benchmark: the one instrument that
// performance claims about the emulator are measured with. See README.md.
//
// The driver's contract runs one workload per process:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload the
// program runs every workload, each in a child process of its own.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// runOpts are the settings of one workload run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	small   bool   // smoke scale: tiny devices and volumes (tests only)
	outDir  string // reports and Chrome traces
	tmpDir  string // image files of crashmount
}

func (o runOpts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// simOps is the fixed command count of the workload's virtual-time window.
func (o runOpts) simOps(spec ioSpec) int64 {
	n := int64(float64(spec.simOpsPerSec) * o.seconds)
	if o.trace {
		n /= 5 // the traced run makes several passes inside the same -seconds
	}
	if n < lapOps {
		n = lapOps
	}
	return n
}

// runWorkload runs one workload in this process.
func runWorkload(name string, o runOpts) (*report, error) {
	if spec, ok := ioSpecByName(name); ok {
		if o.trace {
			return runIOTraced(spec, o), nil
		}
		return runIOUntraced(spec, o), nil
	}
	switch name {
	case "paperfigs":
		return runPaperfigs(o), nil
	case "fleet":
		return runFleet(o), nil
	case "crashmount":
		return runCrashmount(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
		seed     = flag.Uint64("seed", 0x5EED, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 14, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = timed run reporting the end-to-end metrics")
		outDir   = flag.String("out", "bench/out", "directory for JSON reports and Chrome traces")
		tmpDir   = flag.String("tmp", ".bench_build/tmp", "directory for temporary image files")
		aa       = flag.Bool("aa", false, "self-check: run the untraced set twice and compare against the bounds")
		layers   = flag.Bool("layers", false, "run the traced I/O workloads only: unit costs and budget tables")
		schema   = flag.Bool("schema", false, "print BENCHMARK.json as the program defines it and exit")
		small    = flag.Bool("small", false, "smoke scale: tiny volumes, for a quick look and the tests; numbers mean nothing")
	)
	flag.Parse()
	if *schema {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, small: *small, outDir: *outDir, tmpDir: *tmpDir}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	if *workload == "" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		switch {
		case *aa:
			os.Exit(runAA(o, names))
		case *layers:
			o.trace = true
			status := 0
			for _, spec := range ioSpecs {
				rep, err := child(o, spec.name, true, os.Stdout)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(2)
				}
				if rep.Failed != 0 {
					status = 1
				}
			}
			os.Exit(status)
		}
		os.Exit(runSuite(o, names))
	}
	rep, err := runWorkload(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := rep.save(o.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: saving the report:", err)
	}
	rep.print(os.Stdout)
	if rep.Failed != 0 {
		os.Exit(1)
	}
}
