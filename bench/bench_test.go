package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at smoke scale and
// checks that nothing fails and that the contract line carries exactly the
// metrics BENCHMARK.json promises for that kind of run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 0.01, trace: trace, small: true, outDir: dir, tmpDir: dir}
			rep, err := runWorkload(w.Name, o)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			var out bytes.Buffer
			rep.print(&out)
			if rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the contract object: %v", w.Name, trace, err)
			}
			defs := defsFor(trace)
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d defined", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, d.Name, v.Unit, d.Unit)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			for name := range rep.Metrics {
				if _, ok := line.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: program set %s, which BENCHMARK.json does not define", w.Name, trace, name)
				}
			}
		}
	}
}

// TestSchema keeps BENCHMARK.json and the program's tables equal and inside
// the contract's limits.
func TestSchema(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -schema`; regenerate it")
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range f.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("setup_s is missing")
	}
	for _, m := range f.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}
