package workload

import (
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/units"
)

// TestPrefillAllocsIndependentOfVolume pins that a timing-only Prefill
// allocates nothing per 384 KiB block. The first fill of a zone pays for
// the device's first-touch mapping and media state, so the fills measured
// are the second ones, after a reset returned that state to the device's
// freelists: what is left is the driver's own.
func TestPrefillAllocsIndependentOfVolume(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	f, err := config.Paper().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	zoneBytes := f.ZoneCapSectors() * units.Sector
	refill := func(zones int64) float64 {
		return testing.AllocsPerRun(3, func() {
			at, err := ResetAllZones(f, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Prefill(f, at, 0, zones*zoneBytes, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	refill(8) // first touch of all eight zones
	a1, a8 := refill(1), refill(8)
	blocks := 7 * zoneBytes / (384 * units.KiB)
	t.Logf("refill of 1 zone: %.0f allocs; of 8 zones: %.0f allocs, %d more blocks", a1, a8, blocks)
	if a8-a1 > float64(blocks)/8 {
		t.Errorf("8 zones allocate %.0f more than 1 zone over %d more blocks: Prefill allocates per block", a8-a1, blocks)
	}
}
