package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/conzone/conzone/internal/config"
)

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
