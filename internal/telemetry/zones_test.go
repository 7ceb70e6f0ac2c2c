package telemetry

import (
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
)

// TestHeatmapValidFracNeverExceedsFill: a zone holds no more live data than
// was written to it. A staged partial unit is both written and staged, so
// counting it once as head data and again as staged data put ValidFrac above
// FillFrac (config.Paper(), 30 sectors and a flush: 36/4096 live of 30/4096
// written).
func TestHeatmapValidFracNeverExceedsFill(t *testing.T) {
	cfg := config.Paper()
	cfg.FTL.ConventionalZones = 1
	f, err := cfg.NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	zcap := f.ZoneCapSectors()
	var now sim.Time
	step := func(done sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = max(now, done)
	}
	write := func(zone int, off, n int64) {
		t.Helper()
		step(f.Write(now, int64(zone)*zcap+off, make([][]byte, n)))
		step(f.Flush(now, zone))
	}
	write(0, 100, 40) // conventional: page-mapped in SLC, no write pointer
	write(1, 0, 30)   // one direct unit and a staged partial one
	for off := int64(0); off < zcap; off += 512 {
		write(2, off, 512) // the whole zone, alignment tail included
	}
	write(3, 0, 30)
	step(f.ResetZone(now, 3))

	tab := CollectZones(f, now)
	for zone, want := range map[int]struct{ written, staged, pending int64 }{
		0: {40, 40, 0},
		1: {30, 6, 6},
		2: {zcap, zcap - f.HeadSectors(), 0},
		3: {0, 0, 0},
	} {
		h := tab.Zones[zone]
		if h.Written != want.written || h.Staged != want.staged || h.Pending != want.pending {
			t.Errorf("zone %d: written %d, staged %d, pending %d; want %d, %d, %d",
				zone, h.Written, h.Staged, h.Pending, want.written, want.staged, want.pending)
		}
	}
	for _, h := range tab.Zones {
		if h.ValidFrac > h.FillFrac {
			t.Errorf("zone %d (%s): ValidFrac %v above FillFrac %v (written %d, staged %d, pending %d)",
				h.Zone, h.Type, h.ValidFrac, h.FillFrac, h.Written, h.Staged, h.Pending)
		}
	}
	for _, zone := range []int{0, 1, 2} {
		if h := tab.Zones[zone]; h.ValidFrac != h.FillFrac {
			t.Errorf("zone %d: everything written is flushed, yet ValidFrac %v != FillFrac %v", zone, h.ValidFrac, h.FillFrac)
		}
	}
}
