package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/refdata"
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

// TestClaimCheck feeds the one claim evaluator values inside, on the edge of
// and outside a paper claim's band and each figure's absolute band. Every
// line keeps the text the figures print; one value out of its band turns
// its line OFF and the whole verdict to fail.
func TestClaimCheck(t *testing.T) {
	c := refdata.Claim{ID: "x", Statement: "s", Value: 1.0, Tolerance: 0.1}
	for _, tc := range []struct {
		measured float64
		want     string
	}{
		{1.05, "[x] s: paper=1.000 measured=1.050 (±0.100) OK"},
		{0.91, "[x] s: paper=1.000 measured=0.910 (±0.100) OK"},
		{1.2, "[x] s: paper=1.000 measured=1.200 (±0.100) OFF"},
	} {
		lines, pass := evaluate([]refdata.Claim{c}, map[string]float64{"x": tc.measured})
		if len(lines) != 1 || lines[0] != tc.want || pass != strings.HasSuffix(tc.want, " OK") {
			t.Errorf("claim at %v: %q pass=%v, want %q", tc.measured, lines, pass, tc.want)
		}
	}

	for _, tc := range []struct {
		b    band
		want string
	}{
		{hybridTail(50 * time.Microsecond), "[fig7-hybrid-tail] hybrid p99 ~50µs: measured=50µs (band [15µs,85µs]) OK"},
		{hybridTail(85 * time.Microsecond), "[fig7-hybrid-tail] hybrid p99 ~50µs: measured=85µs (band [15µs,85µs]) OK"},
		{hybridTail(90 * time.Microsecond), "[fig7-hybrid-tail] hybrid p99 ~50µs: measured=90µs (band [15µs,85µs]) OFF"},
		{hybridTail(10 * time.Microsecond), "[fig7-hybrid-tail] hybrid p99 ~50µs: measured=10µs (band [15µs,85µs]) OFF"},
		{missRate(0.274), "[fig8-missrate] L2P miss rate ~27.4%: measured=27.4% OK"},
		{missRate(0.5), "[fig8-missrate] L2P miss rate ~27.4%: measured=50.0% OFF"},
		{missRate(0.1), "[fig8-missrate] L2P miss rate ~27.4%: measured=10.0% OFF"},
	} {
		// A band out of range fails the figure even when every paper claim
		// held, and its line comes after theirs.
		lines, pass := evaluate([]refdata.Claim{c}, map[string]float64{"x": 1}, tc.b)
		if len(lines) != 2 || lines[1] != tc.want || pass != strings.HasSuffix(tc.want, " OK") {
			t.Errorf("band: %q pass=%v, want second line %q", lines, pass, tc.want)
		}
	}
}
