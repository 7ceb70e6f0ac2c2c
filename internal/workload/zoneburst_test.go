package workload

import (
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
)

// burstCall is one call the zone-burst writer made on its device.
type burstCall struct {
	zone int
	off  int64 // in-zone byte offset of a write; -1 for a reset
}

// recordingZoned is a ByteZoned of a given shape that only records.
type recordingZoned struct {
	zones     int
	zoneBytes int64
	calls     []burstCall
}

func (d *recordingZoned) Write(off int64, data []byte) error {
	d.calls = append(d.calls, burstCall{zone: int(off / d.zoneBytes), off: off % d.zoneBytes})
	return nil
}

func (d *recordingZoned) ResetZone(zone int) error {
	d.calls = append(d.calls, burstCall{zone: zone, off: -1})
	return nil
}

func (d *recordingZoned) ZoneBytes() int64 { return d.zoneBytes }
func (d *recordingZoned) NumZones() int    { return d.zones }

// TestZoneBurstReproducesPinnedStream pins the writer to the stream
// conzone-bench's randomWriter (and conzone-serve's drive, the same loop)
// produced at commit 796b1cb on config.Paper() with an 8-zone working set:
// the first 64 (zone, in-zone offset) pairs and the step and zone of the
// first eight resets, recorded there by stepping that code and watching its
// offsets. -timeseries, -serve scrapes and every EXPERIMENTS.md series depend
// on this stream; regenerate the tables only by running that commit.
func TestZoneBurstReproducesPinnedStream(t *testing.T) {
	f, err := config.Paper().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	dev := &recordingZoned{zones: f.NumZones(), zoneBytes: f.ZoneCapSectors() * units.Sector}
	if dev.zones != 96 || dev.zoneBytes != 16*units.MiB {
		t.Fatalf("config.Paper() is %d zones x %d bytes; the pins were taken at 96 x 16 MiB", dev.zones, dev.zoneBytes)
	}
	w := NewZoneBurst(dev, 8)
	if w.Zones() != 8 {
		t.Fatalf("working set = %d zones, want 8", w.Zones())
	}

	wantWrites := [64]burstCall{
		{50, 0}, {55, 0}, {48, 0}, {49, 0},
		{53, 0}, {54, 0}, {53, 49152}, {48, 49152},
		{52, 0}, {53, 98304}, {50, 49152}, {49, 49152},
		{48, 98304}, {53, 147456}, {49, 98304}, {53, 196608},
		{50, 98304}, {55, 49152}, {53, 245760}, {54, 49152},
		{52, 49152}, {54, 98304}, {49, 147456}, {52, 98304},
		{49, 196608}, {52, 147456}, {49, 245760}, {48, 147456},
		{52, 196608}, {53, 294912}, {51, 0}, {52, 245760},
		{53, 344064}, {50, 147456}, {55, 98304}, {51, 49152},
		{55, 147456}, {50, 196608}, {53, 393216}, {55, 196608},
		{50, 245760}, {48, 196608}, {48, 245760}, {50, 294912},
		{51, 98304}, {54, 147456}, {51, 147456}, {48, 294912},
		{50, 344064}, {50, 393216}, {55, 245760}, {53, 442368},
		{51, 196608}, {52, 294912}, {50, 442368}, {52, 344064},
		{53, 491520}, {49, 294912}, {54, 196608}, {53, 540672},
		{50, 491520}, {54, 245760}, {52, 393216}, {53, 589824},
	}
	type resetAt struct{ step, zone int }
	wantResets := []resetAt{{2542, 53}, {2554, 50}, {2593, 52}, {2743, 48}, {2759, 51}, {2768, 54}, {2893, 55}, {3021, 49}}

	var writes []burstCall
	var resets []resetAt
	for step := 0; len(resets) < len(wantResets) && step < 4000; step++ {
		dev.calls = dev.calls[:0]
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
		wr := dev.calls[len(dev.calls)-1]
		if len(dev.calls) == 2 {
			if rs := dev.calls[0]; rs.off != -1 || rs.zone != wr.zone || wr.off != 0 {
				t.Fatalf("step %d: reset %+v not followed by a write at the zone start: %+v", step, rs, wr)
			}
			resets = append(resets, resetAt{step, wr.zone})
		} else if len(dev.calls) != 1 || wr.off < 0 {
			t.Fatalf("step %d made calls %+v, want one write or a reset and a write", step, dev.calls)
		}
		if len(writes) < len(wantWrites) {
			writes = append(writes, wr)
		}
	}
	for i, want := range wantWrites {
		if writes[i] != want {
			t.Errorf("write %d = zone %d offset %d, pinned zone %d offset %d", i, writes[i].zone, writes[i].off, want.zone, want.off)
		}
	}
	if len(resets) != len(wantResets) {
		t.Fatalf("saw %d resets in 4000 steps, pinned %d", len(resets), len(wantResets))
	}
	for i, want := range wantResets {
		if resets[i] != want {
			t.Errorf("reset %d at step %d zone %d, pinned step %d zone %d", i, resets[i].step, resets[i].zone, want.step, want.zone)
		}
	}
}

// A working set that would run past the last zone is clamped to the zones
// that exist.
func TestZoneBurstClampsWorkingSet(t *testing.T) {
	dev := &recordingZoned{zones: 6, zoneBytes: 4 * ZoneBurstBytes}
	w := NewZoneBurst(dev, 8)
	if w.Zones() != 3 {
		t.Fatalf("working set = %d zones over a 6-zone device, want the upper 3", w.Zones())
	}
	for i := 0; i < 64; i++ {
		if err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range dev.calls {
		if c.zone < 3 || c.zone > 5 {
			t.Fatalf("call %+v outside zones 3..5", c)
		}
	}
}
