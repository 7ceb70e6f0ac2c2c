package ftl_test

import (
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// allocated returns the bytes and objects the process allocates while fn
// runs. The tests using it run alone on one goroutine.
func allocated(fn func()) (bytes, objects int64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return int64(b.TotalAlloc - a.TotalAlloc), int64(b.Mallocs - a.Mallocs)
}

func build(t *testing.T, c config.DeviceConfig) *ftl.FTL {
	t.Helper()
	f, err := ftl.New(c.Geometry, c.Latency, c.FTL)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDeviceCostsWhatItWrites pins the memory of a device to what it has
// programmed instead of to its geometry: building one allocates a small
// constant (the paper configuration used to take 21 MiB, the small one
// 380 KiB), and writing k sectors grows it in proportion to k.
func TestDeviceCostsWhatItWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	var keep *ftl.FTL
	for _, c := range []struct {
		name   string
		cfg    config.DeviceConfig
		budget int64
	}{
		{"paper", config.Paper(), 2 * units.MiB},
		{"small", config.Small(), 64 * units.KiB},
	} {
		if got, _ := allocated(func() { keep = build(t, c.cfg) }); got > c.budget {
			t.Errorf("ftl.New(%s) allocates %d bytes, budget %d", c.name, got, c.budget)
		}
	}
	runtime.KeepAlive(keep)

	// Growth: k timing-only sectors written sequentially from the start of
	// a zone and flushed. What a sector costs: its share of a 64-sector
	// media chunk (21 B), its mapping entry (9 B, allocated a zone at a
	// time) and staging bookkeeping for a partial tail. The fixed part
	// covers the zone's mapping table, scratch slices and the first
	// chunk of each chip.
	const perSector, fixed = 32, 96 * units.KiB
	for _, k := range []int64{96, 960, 3840} {
		f := build(t, config.Paper())
		zone := f.ZoneCapSectors()
		got, _ := allocated(func() {
			var at sim.Time
			for off := int64(0); off < k; off += 96 {
				var err error
				if at, err = f.Write(at, zone+off, make([][]byte, 96)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.FlushAll(at); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("k=%d sectors: %d bytes", k, got)
		if limit := fixed + perSector*k; got > limit {
			t.Errorf("writing %d sectors allocates %d bytes, limit %d", k, got, limit)
		}
	}
}

// TestZoneResetLapAllocatesNothing is the seqwrite loop — stamped 4 KiB
// writes filling a zone, then a reset — measured the way a Go benchmark
// reports it: once every SLC superblock has been opened, it runs at
// 0 allocs/op and 0 B/op. Media chunks, payload slabs, the zone's mapping
// table and the staging tables come back from the device's own freelists,
// never from the garbage collector; what a lap does allocate (the reset's
// journal record) is a fraction of a byte per command.
func TestZoneResetLapAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	f := build(t, config.Small())
	const zone = 1
	zoneCap := f.ZoneCapSectors()
	data := [][]byte{make([]byte, units.Sector)}
	var at sim.Time
	lap := func() {
		var err error
		for off := int64(0); off < zoneCap; off++ {
			data[0][0] = byte(off)
			if at, err = f.Write(at, zone*zoneCap+off, data); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = f.ResetZone(at, zone); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*f.Staging().SuperblockCount(); i++ {
		lap()
	}
	const laps = 8
	bytes, objects := allocated(func() {
		for i := 0; i < laps; i++ {
			lap()
		}
	})
	if ops := laps * zoneCap; bytes/ops != 0 || objects/ops != 0 {
		t.Fatalf("%d commands over %d write/reset laps allocated %d bytes in %d objects: %d B/op, %d allocs/op, want 0 and 0",
			ops, laps, bytes, objects, bytes/ops, objects/ops)
	} else {
		t.Logf("%d commands: %d bytes in %d objects", ops, bytes, objects)
	}
}
