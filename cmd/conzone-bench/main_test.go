package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusals: a command line that cannot do what it says fails with one
// line and prints no report.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-exp", "fig9"}, `unknown experiment "fig9" (have: all table1 table2 fig6a fig6b fig7 fig8 ablations emulators qd faults crash zonelife metrics timeseries f2fs)`},
		{"the wall-clock self-benchmark, now a test of internal/host", []string{"-exp", "selfbench"}, `unknown experiment "selfbench" (have: all table1 table2 fig6a fig6b fig7 fig8 ablations emulators qd faults crash zonelife metrics timeseries f2fs)`},
		{"output nothing selected produces", []string{"-exp", "table1", "-chrome", filepath.Join(t.TempDir(), "t.json")}, "-chrome: -exp table1 does not produce it"},
		{"output of an experiment outside all", []string{"-series-csv", filepath.Join(t.TempDir(), "s.csv")}, "-series-csv: -exp all does not produce it"},
		{"a mode boolean of the old command line", []string{"-zonelife"}, errFlags.Error()},
		{"the self-benchmark's output flag", []string{"-json", filepath.Join(t.TempDir(), "b.json")}, errFlags.Error()},
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
