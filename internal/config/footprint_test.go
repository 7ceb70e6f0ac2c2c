package config

import (
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/legacy"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) int64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return int64(b.TotalAlloc - a.TotalAlloc)
}

// TestLegacyCostsWhatItWrites pins the legacy comparator's memory to what
// it has written: a fresh device on Paper() allocates under 256 KiB (its
// whole-device page table and reverse maps took 7.6 MiB, and a dense L2P
// cache slot index 1.5 MiB; one 256 KiB slot chunk allocated up front
// would break the budget), and writing k sectors grows it in proportion to
// k — a share of a media chunk and of the superblock reverse map per
// sector — plus, on the first write, one 512 KiB page-table chunk.
func TestLegacyCostsWhatItWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	c := Paper()
	var d *legacy.Device
	fresh := allocated(func() {
		var err error
		if d, err = c.NewLegacy(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(d)
	t.Logf("fresh device: %d bytes", fresh)
	if fresh > 256*units.KiB {
		t.Errorf("a fresh legacy device on Paper() allocates %d bytes, budget %d", fresh, 256*units.KiB)
	}

	const perSector, fixed = 32, 640 * units.KiB
	sbSectors := c.Geometry.SuperblockBytes() / units.Sector
	prev := int64(0)
	for _, k := range []int64{sbSectors / 4, sbSectors, 4 * sbSectors} {
		d, err := c.NewLegacy()
		if err != nil {
			t.Fatal(err)
		}
		got := allocated(func() {
			var at sim.Time
			for lba := int64(0); lba < k; lba += 128 {
				if at, err = d.Write(at, lba, make([][]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.Flush(at); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("k=%d sectors: %d bytes", k, got)
		if limit := fixed + perSector*k; got > limit {
			t.Errorf("writing %d sectors allocates %d bytes, limit %d", k, got, limit)
		}
		if got <= prev {
			t.Errorf("writing %d sectors allocates %d bytes, no more than a smaller write's %d", k, got, prev)
		}
		prev = got
	}
}
