package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrintReport pins the one printer's layout: the heading, column
// alignment, a captioned second table, notes, and the two verdicts.
func TestPrintReport(t *testing.T) {
	rep := Report{
		Title: "Demo: two tables",
		Tables: []Table{
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
	if err := rep.Print(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != passing {
		t.Errorf("passing report printed as:\n%s\nwant:\n%s", out.String(), passing)
	}

	// A claim that did not hold changes the verdict; a report with no claim
	// lines prints no verdict at all.
	rep.Checks, rep.Pass = []string{"reads scale: x1.05 (want > 1.2) [FAIL]"}, false
	out.Reset()
	rep.Print(&out)
	if want := "  reads scale: x1.05 (want > 1.2) [FAIL]\n  => SOME CLAIMS NOT REPRODUCED\n"; !strings.HasSuffix(out.String(), want) {
		t.Errorf("failing report ends:\n%s\nwant suffix:\n%s", out.String(), want)
	}
	rep.Checks, rep.Pass = nil, true
	out.Reset()
	rep.Print(&out)
	if strings.Contains(out.String(), "=>") {
		t.Errorf("a report without claim lines printed a verdict:\n%s", out.String())
	}
}
