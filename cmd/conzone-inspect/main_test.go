package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/conzone/conzone"
	"github.com/conzone/conzone/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// writeImage saves the NAND image of a Small device after a deterministic
// stamped fill — every sector carries its LBA — of zone 0 whole and of 100
// sectors of zone 2, with zone 1 written and reset in between, so the image
// holds full and partial zones and one journal record.
func writeImage(t *testing.T) string {
	t.Helper()
	dev, err := conzone.Open(config.Small())
	if err != nil {
		t.Fatal(err)
	}
	stamped := func(off, sectors int64) []byte {
		b := make([]byte, sectors*conzone.SectorSize)
		for s := int64(0); s < sectors; s++ {
			binary.LittleEndian.PutUint64(b[s*conzone.SectorSize:], uint64(off/conzone.SectorSize+s))
		}
		return b
	}
	zb := dev.ZoneBytes()
	for _, w := range []struct {
		zone    int
		sectors int64
		reset   bool
	}{{0, zb / conzone.SectorSize, false}, {1, 64, true}, {2, 100, false}} {
		off := int64(w.zone) * zb
		if err := dev.Write(off, stamped(off, w.sectors)); err != nil {
			t.Fatal(err)
		}
		if err := dev.FlushZone(w.zone); err != nil {
			t.Fatal(err)
		}
		if w.reset {
			if err := dev.ResetZone(w.zone); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "dev.img")
	if err := dev.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunPinned pins stdout for each preset, for -zones and for -image on
// an image the test writes: testdata/<name>.golden, which -update rewrites.
// The image's temporary path prints as dev.img.
func TestRunPinned(t *testing.T) {
	img := writeImage(t)
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"paper", nil},
		{"small", []string{"-preset", "small"}},
		{"qlc", []string{"-preset", "qlc"}},
		{"small-zones", []string{"-preset", "small", "-zones"}},
		{"image", []string{"-preset", "small", "-image", img}},
		{"image-zones", []string{"-preset", "small", "-image", img, "-zones"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(c.args, &stdout, &stderr); err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		got := []byte(strings.ReplaceAll(stdout.String(), img, "dev.img"))
		path := filepath.Join("testdata", c.golden+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: stdout differs from %s (-update rewrites it):\n%s", c.args, path, got)
		}
	}
}

// TestRunWriteConfig: the file -write-config writes loads back through
// config.Load as the preset it names.
func TestRunWriteConfig(t *testing.T) {
	for name, preset := range presets {
		path := filepath.Join(t.TempDir(), name+".json")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-preset", name, "-write-config", path}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := "wrote " + name + " preset to " + path + "\n"; stdout.String() != want {
			t.Errorf("%s: stdout %q, want %q", name, stdout.String(), want)
		}
		got, err := config.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, preset()) {
			t.Errorf("%s: loaded %+v, want the preset %+v", name, got, preset())
		}
	}
}

// TestRunWriteLoadedConfig: with -config, -write-config writes the loaded
// configuration, not the preset, and says which file it came from.
func TestRunWriteLoadedConfig(t *testing.T) {
	dir := t.TempDir()
	in, out := filepath.Join(dir, "mine.json"), filepath.Join(dir, "out.json")
	mine := config.Small()
	mine.FTL.NumWriteBuffers++
	if err := mine.Save(in); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-preset", "qlc", "-config", in, "-write-config", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := "wrote configuration " + in + " to " + out + "\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
	got, err := config.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, mine) {
		t.Errorf("wrote %+v, want the loaded configuration %+v", got, mine)
	}
}

// TestRunRefusals: a command line that cannot be served returns an error,
// prints nothing on stdout and writes no file.
func TestRunRefusals(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.img")
	missingCfg := filepath.Join(dir, "missing.json")
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"Geometry": `), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown preset", []string{"-preset", "tlc"}, `unknown preset "tlc"`},
		{"missing image", []string{"-image", missing}, "open " + missing + ": no such file or directory"},
		{"unknown flag", []string{"-heatmap"}, errFlags.Error()},
		{"missing config", []string{"-config", missingCfg, "-write-config", out}, missingCfg},
		{"malformed config", []string{"-config", malformed, "-write-config", out}, "config: parse " + malformed},
	} {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q before refusing", c.name, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: wrote %s (stat: %v)", c.name, out, err)
		}
	}
}
