package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestRunPinned pins the stdout of a read job over a prefilled region and of
// a sequential-write job that wraps its region, both on the Small
// configuration: testdata/<name>.golden, which -update rewrites. Every
// number the report prints is virtual time, so the output repeats exactly.
func TestRunPinned(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"read", []string{"-small", "-rw", "read", "-bs", "128k", "-range", "4m", "-size", "4m", "-prefill"}},
		{"seqwrite", []string{"-small", "-rw", "write", "-bs", "128k", "-range", "4m", "-size", "8m"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(c.args, &stdout, &stderr); err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		path := filepath.Join("testdata", c.golden+".golden")
		if *update {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%v: stdout differs from %s (-update rewrites it):\n%s", c.args, path, stdout.Bytes())
		}
	}
}

// TestRunRefusals: a random-write job over a sequential zone fails before
// its first I/O with one line that names the zone, and prints no report.
func TestRunRefusals(t *testing.T) {
	conv := filepath.Join(t.TempDir(), "conv.json")
	cfg := config.Paper()
	cfg.FTL.ConventionalZones = 1
	if err := cfg.Save(conv); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"conzone", []string{"-small", "-rw", "randwrite", "-size", "1m"}, "conzone: randwrite region [0B,+20MiB) touches sequential zone 0, where a random write does not begin at the write pointer (the device has 0 conventional zones)"},
		{"femu", []string{"-small", "-device", "femu", "-rw", "randwrite", "-size", "1m"}, "femu: randwrite region [0B,+15MiB) touches sequential zone 0, where a random write does not begin at the write pointer (the device has 0 conventional zones)"},
		{"confzns", []string{"-small", "-device", "confzns", "-rw", "randwrite", "-size", "1m"}, "confzns: randwrite region [0B,+15MiB) touches sequential zone 0, where a random write does not begin at the write pointer (the device has 0 conventional zones)"},
		{"a region past the conventional zones", []string{"-config", conv, "-rw", "randwrite", "-offset", "12m", "-range", "8m", "-size", "256k"}, "conzone: randwrite region [12MiB,+8MiB) touches sequential zone 1, where a random write does not begin at the write pointer (the device has 1 conventional zones)"},
		{"an unknown flag", []string{"-iodepth", "4"}, errFlags.Error()},
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

// TestRunRandWrite: a random-write job runs to its report on the legacy
// device, which has no zones, and on ConZone inside its conventional zones.
func TestRunRandWrite(t *testing.T) {
	conv := filepath.Join(t.TempDir(), "conv.json")
	cfg := config.Paper()
	cfg.FTL.ConventionalZones = 1
	if err := cfg.Save(conv); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-small", "-device", "legacy", "-rw", "randwrite", "-size", "1m"}, "legacy-randwrite: bs=4KiB jobs=1 region=[0B,+10.50MiB) volume=1MiB/thread\n"},
		{[]string{"-config", conv, "-rw", "randwrite", "-range", "4m", "-size", "256k"}, "conzone-randwrite: bs=4KiB jobs=1 region=[0B,+4MiB) volume=256KiB/thread\n"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(c.args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if out := stdout.String(); !strings.HasPrefix(out, c.want) || !strings.Contains(out, "  lat: n=") {
			t.Errorf("%v: stdout\n%s", c.args, out)
		}
	}
}
