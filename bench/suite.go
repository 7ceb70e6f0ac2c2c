package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Suite mode: every workload runs in a child process of its own (a re-exec
// of this binary), so peak memory and garbage-collector state do not leak
// from one workload into the next.

// child runs one workload in a child process, passes its output through
// and returns the report it saved.
func child(o runOpts, workload string, trace bool, out io.Writer) (*report, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", t, "--out", o.outDir, "--tmp", o.tmpDir)
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	runErr := cmd.Run() // exit status 1 = failed operations; the report says which
	b, err := os.ReadFile(reportPath(o.outDir, workload, trace))
	if err != nil {
		return nil, fmt.Errorf("%s: no report (%v, %v)", workload, runErr, err)
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return rep, nil
}

// results is the file the suite writes: everything measured, with
// quartiles and sample counts, and the machine it was measured on.
type results struct {
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Untraced  []*report `json:"untraced"`
	Traced    []*report `json:"traced,omitempty"`
}

// runSuite runs every workload untraced and traced, checks that the two
// runs of each I/O workload saw the same completions, prints the summary
// and writes results.json. It returns the process's exit status.
func runSuite(o runOpts, names []string) int {
	res := results{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Seed: o.seed, Seconds: o.seconds}
	failed := false
	for _, w := range names {
		u, err := child(o, w, false, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res.Untraced = append(res.Untraced, u)
		failed = failed || u.Failed != 0
		t, err := child(o, w, true, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res.Traced = append(res.Traced, t)
		failed = failed || t.Failed != 0
		if d := u.Info["trace_digest"]; d != t.Info["trace_digest"] {
			fmt.Printf("FAIL %s: the untraced run's checkpoint digest %s is not the traced run's %s\n", w, d, t.Info["trace_digest"])
			failed = true
		}
	}
	fmt.Printf("\n%-11s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.Name)
	}
	fmt.Println()
	for _, u := range res.Untraced {
		fmt.Printf("%-11s", u.Workload)
		for _, d := range endToEnd {
			fmt.Printf(" %16.6g", u.Metrics[d.Name])
		}
		fmt.Printf("   failed %d of %d\n", u.Failed, u.Attempted)
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.outDir, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing results.json:", err)
		return 2
	}
	fmt.Printf("results: %s\n", filepath.Join(o.outDir, "results.json"))
	if failed {
		return 1
	}
	return 0
}

// runAA is the benchmark's self-check: the untraced set twice in one
// invocation, the second time in reverse order, and per end-to-end metric
// and workload both values, their ratio and a verdict against the metric's
// bound. Virtual-time metrics must be identical: same seed, same inputs.
func runAA(o runOpts, names []string) int {
	var sets [2]map[string]*report
	for s := range sets {
		sets[s] = map[string]*report{}
		order := append([]string(nil), names...)
		if s == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			rep, err := child(o, w, false, io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			sets[s][w] = rep
		}
	}
	status := 0
	fmt.Printf("%-11s %-15s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "ratio", "bound", "verdict")
	for _, w := range names {
		a, b := sets[0][w], sets[1][w]
		if a.Failed != 0 || b.Failed != 0 {
			fmt.Printf("%-11s failed operations: %d and %d\n", w, a.Failed, b.Failed)
			status = 1
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			ratio := y / x
			verdict := "agree"
			switch {
			case strings.HasPrefix(d.Name, "sim_"):
				verdict = "identical"
				if x != y {
					verdict, status = "DIFFERENT", 1
				}
			case math.Abs(ratio-1) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-11s %-15s %14.6g %14.6g %8.4f %6.2f  %s\n", w, d.Name, x, y, ratio, d.Bound, verdict)
		}
	}
	return status
}
