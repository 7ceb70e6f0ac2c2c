package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// compare runs compareReports and returns what it printed to os.Stdout.
func compare(t *testing.T, cur, base *selfBenchReport, regressPct float64) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		defer r.Close()
		b, _ := io.ReadAll(r) // a short read shows up as a missing row below
		out <- string(b)
	}()
	err = compareReports(cur, base, regressPct)
	w.Close()
	return <-out, err
}

func report(results ...selfBenchResult) *selfBenchReport {
	return &selfBenchReport{Date: "d", GoVersion: "go", GOOS: "os", GOARCH: "arch", Results: results}
}

func entry(name string, ns float64, allocs int64) selfBenchResult {
	return selfBenchResult{Name: name, NsPerOp: ns, MiBPerSec: 4096 / ns, AllocsPerOp: allocs}
}

// rowOf returns the table row that starts with name ("" if absent).
func rowOf(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}

func TestCompareReports(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cur, base *selfBenchReport
		wantErr   string            // substring of the error; "" = no error
		wantRows  map[string]string // benchmark name -> substring of its row
		wantOrder []string          // names whose rows must appear in this order
	}{
		{
			name:     "regression beyond the threshold",
			cur:      report(entry("a/qd1", 130, 0), entry("b/qd1", 100, 0)),
			base:     report(entry("a/qd1", 100, 0), entry("b/qd1", 100, 0)),
			wantErr:  "a/qd1 (+30.0% ns/op)",
			wantRows: map[string]string{"a/qd1": "REGRESSED", "b/qd1": "ok"},
		},
		{
			name:     "regression at the threshold passes",
			cur:      report(entry("a/qd1", 125, 0)),
			base:     report(entry("a/qd1", 100, 0)),
			wantRows: map[string]string{"a/qd1": "ok"},
		},
		{
			name:     "improvement",
			cur:      report(entry("a/qd1", 60, 0)),
			base:     report(entry("a/qd1", 100, 0)),
			wantRows: map[string]string{"a/qd1": "improved"},
		},
		{
			name:     "alloc growth on a zero-alloc entry",
			cur:      report(entry("a/qd1", 100, 2), entry("b/qd1", 100, 3)),
			base:     report(entry("a/qd1", 100, 0), entry("b/qd1", 100, 1)),
			wantErr:  "a/qd1 (2 allocs/op on a zero-alloc baseline)",
			wantRows: map[string]string{"a/qd1": "ok +allocs", "b/qd1": "ok"},
		},
		{
			name:     "a new entry is reported and never fails",
			cur:      report(entry("a/qd1", 100, 0), entry("fresh/qd1", 900, 9)),
			base:     report(entry("a/qd1", 100, 0)),
			wantRows: map[string]string{"fresh/qd1": "new"},
		},
		{
			name:      "missing entries print in baseline order",
			cur:       report(entry("a/qd1", 100, 0)),
			base:      report(entry("z/qd1", 100, 0), entry("a/qd1", 100, 0), entry("m/qd1", 100, 0), entry("c/qd1", 100, 0)),
			wantRows:  map[string]string{"z/qd1": "missing", "m/qd1": "missing", "c/qd1": "missing"},
			wantOrder: []string{"a/qd1", "z/qd1", "m/qd1", "c/qd1"},
		},
		{
			name:     "no names in common",
			cur:      report(entry("a/qd1", 100, 0)),
			base:     report(entry("b/qd1", 100, 0)),
			wantErr:  "no benchmark names in common",
			wantRows: map[string]string{"a/qd1": "new", "b/qd1": "missing"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			// Repeated: the output must not depend on map iteration order.
			for run := 0; run < 16; run++ {
				out, err := compare(t, tc.cur, tc.base, 25)
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("unexpected error: %v", err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				for name, want := range tc.wantRows {
					if row := rowOf(out, name); !strings.Contains(row, want) {
						t.Errorf("row of %s = %q, want it to contain %q\n%s", name, row, want, out)
					}
				}
				at := -1
				for _, name := range tc.wantOrder {
					i := strings.Index(out, "\n"+name+" ")
					if i < at {
						t.Fatalf("row of %s is out of order\n%s", name, out)
					}
					at = i
				}
				if run == 0 {
					first = out
				} else if out != first {
					t.Fatalf("run %d printed a different table\n%s\nvs\n%s", run, out, first)
				}
			}
		})
	}
}
