package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/experiments"
)

// TestPrintReport pins the one printer's layout: the heading, column
// alignment, a captioned second table, notes, and the two verdicts.
func TestPrintReport(t *testing.T) {
	rep := experiments.Report{
		Title: "Demo: two tables",
		Tables: []experiments.Table{
			{
				Header: []string{"name", "", "MiB/s"},
				Rows:   [][]string{{"a", "", "7"}, {"longer", "", "1234"}},
				Notes:  []string{"", "a note under the first table"},
			},
			{Caption: "Counters:", Rows: [][]string{{"program fails", "3"}, {"read-only", "false"}}},
		},
		Checks: []string{"reads scale: x3.35 (want > 1.2) [ok]"},
		Pass:   true,
	}
	const passing = `
=== Demo: two tables ===
name      MiB/s
a         7
longer    1234

a note under the first table

Counters:
program fails  3
read-only      false
  reads scale: x3.35 (want > 1.2) [ok]
  => paper claims reproduced
`
	var out bytes.Buffer
	if err := printReport(&out, rep); err != nil {
		t.Fatal(err)
	}
	if out.String() != passing {
		t.Errorf("passing report printed as:\n%s\nwant:\n%s", out.String(), passing)
	}

	// A claim that did not hold changes the verdict; a report with no claim
	// lines prints no verdict at all.
	rep.Checks, rep.Pass = []string{"reads scale: x1.05 (want > 1.2) [FAIL]"}, false
	out.Reset()
	printReport(&out, rep)
	if want := "  reads scale: x1.05 (want > 1.2) [FAIL]\n  => SOME CLAIMS NOT REPRODUCED\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("failing report ends:\n%s\nwant suffix:\n%s", out.String(), want)
	}
	rep.Checks, rep.Pass = nil, true
	out.Reset()
	printReport(&out, rep)
	if strings.Contains(out.String(), "=>") {
		t.Errorf("a report without claim lines printed a verdict:\n%s", out.String())
	}
}

// TestRunRefusals: a command line that cannot do what it says fails with one
// line and prints no report.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig9"}, `unknown experiment "fig9" (have: all table1 table2 fig6a fig6b fig7 fig8 ablations emulators qd faults crash zonelife metrics timeseries selfbench)`},
		{"output nothing selected produces", []string{"-exp", "table1", "-chrome", filepath.Join(t.TempDir(), "t.json")}, "-chrome: -exp table1 does not produce it"},
		{"output of an experiment outside all", []string{"-series-csv", filepath.Join(t.TempDir(), "s.csv")}, "-series-csv: -exp all does not produce it"},
		{"a mode boolean of the old command line", []string{"-zonelife"}, errFlags.Error()},
	} {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q before refusing", c.name, stdout.String())
		}
	}
}

// TestRunWritesArtifact drives one experiment end to end through the flag
// that asks for its output.
func TestRunWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qd.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-exp", "qd", "-quick", "-metrics-json", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(stdout.String(), "  => paper claims reproduced\nwrote "+path+"\n") {
		t.Errorf("stdout ends:\n%s", stdout.String())
	}
	if doc, err := os.ReadFile(path); err != nil || !bytes.Contains(doc, []byte(`"read_scaling"`)) {
		t.Errorf("artifact: err %v, contents %q", err, doc)
	}
}
