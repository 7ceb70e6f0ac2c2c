package config

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/conzone/conzone/internal/units"
)

func TestPaperConfigValid(t *testing.T) {
	c := Paper()
	if err := c.Validate(); err != nil {
		t.Fatalf("Paper() invalid: %v", err)
	}
	// Paper-anchored dimensions.
	if c.Geometry.Chips() != 4 {
		t.Errorf("chips = %d", c.Geometry.Chips())
	}
	if c.Geometry.SuperpageBytes() != 384*units.KiB {
		t.Errorf("superpage = %d", c.Geometry.SuperpageBytes())
	}
	if got := c.Geometry.SuperblockBytes(); got != 16128*units.KiB {
		t.Errorf("superblock = %d (want 15.75 MiB)", got)
	}
	if c.FTL.L2PCacheBytes != 12*units.KiB {
		t.Error("cache not 12 KiB")
	}
	f, err := c.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumZones() != 96 {
		t.Errorf("zones = %d", f.NumZones())
	}
	if f.ZoneCapSectors()*units.Sector != 16*units.MiB {
		t.Errorf("zone capacity = %d", f.ZoneCapSectors()*units.Sector)
	}
	// Logical capacity 1.5 GiB, as §IV-A configures.
	if f.TotalSectors()*units.Sector != 1536*units.MiB {
		t.Errorf("capacity = %s", units.FormatBytes(f.TotalSectors()*units.Sector))
	}
	// SLC staging must hold every zone's alignment tail plus slack.
	tails := int64(f.NumZones()) * (f.ZoneCapSectors() - c.Geometry.SuperblockBytes()/units.Sector)
	if f.Staging().TotalSectors() < tails+2*f.Staging().SectorsPerSuperblock() {
		t.Errorf("SLC staging too small: %d sectors for %d tail sectors",
			f.Staging().TotalSectors(), tails)
	}
}

func TestSmallConfigValid(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small() invalid: %v", err)
	}
	f, err := c.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumZones() != 10 {
		t.Errorf("zones = %d", f.NumZones())
	}
}

func TestQLCConfigValid(t *testing.T) {
	c := QLC()
	if err := c.Validate(); err != nil {
		t.Fatalf("QLC() invalid: %v", err)
	}
	f, err := c.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	// Native zones: capacity equals the (power-of-two) superblock.
	if f.ZoneCapSectors()*units.Sector != 16*units.MiB {
		t.Errorf("QLC zone = %d", f.ZoneCapSectors()*units.Sector)
	}
	if f.Stats().TailSectors != 0 {
		t.Error("native zones should have no tails")
	}
}

func TestBuildersProduceDistinctDevices(t *testing.T) {
	c := Small()
	cz, err := c.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := c.NewLegacy()
	if err != nil {
		t.Fatal(err)
	}
	fm, err := c.NewFEMU()
	if err != nil {
		t.Fatal(err)
	}
	if cz.Array() == lg.Array() || lg.Array() == fm.Array() {
		t.Error("devices must own separate media")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	c := Small()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Geometry != c.Geometry {
		t.Error("geometry did not round-trip")
	}
	if got.FTL != c.FTL || got.Legacy != c.Legacy || got.FEMU != c.FEMU {
		t.Error("params did not round-trip")
	}
}

// TestLoadIgnoresRemovedKey loads a file Save wrote at PR 12, verbatim: its
// FTL object still carries the read-executor knob PR 13 deleted, set to 4.
func TestLoadIgnoresRemovedKey(t *testing.T) {
	got, err := Load(filepath.Join("testdata", "saved_by_pr12.json"))
	if err != nil {
		t.Fatalf("config saved by the previous version rejected: %v", err)
	}
	if want := Small(); got != want {
		t.Errorf("loaded config differs from Small():\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadRejectsBadFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := writeFile(invalid, "{}"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(invalid); err == nil {
		t.Error("zero config accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
