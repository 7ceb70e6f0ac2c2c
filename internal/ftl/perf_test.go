package ftl_test

// Wall-clock cost of the FTL alone, called directly with no host interface
// in front of it.

import (
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// BenchmarkEmulatorSeqWrite measures the emulator's wall-clock cost of
// pushing sequential writes through the full ConZone write path.
func BenchmarkEmulatorSeqWrite(b *testing.B) {
	cfg := config.Small()
	f, err := cfg.NewConZone()
	if err != nil {
		b.Fatal(err)
	}
	zc := f.ZoneCapSectors()
	// Stay within each zone's head region: the alignment tails would
	// otherwise accumulate in SLC across iterations and exhaust staging.
	headSectors := cfg.Geometry.SuperblockBytes() / units.Sector
	payloads := make([][]byte, 96)
	var at sim.Time
	var lba int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lba%zc+96 > headSectors {
			lba += zc - lba%zc // move to the next zone's start
		}
		if lba >= int64(f.NumZones())*zc {
			b.StopTimer()
			for z := 0; z < f.NumZones(); z++ {
				if _, err := f.ResetZone(at, z); err != nil {
					b.Fatal(err)
				}
			}
			lba = 0
			b.StartTimer()
		}
		d, err := f.Write(at, lba, payloads)
		if err != nil {
			b.Fatal(err)
		}
		at = d
		lba += 96
	}
	b.SetBytes(96 * units.Sector)
}

// BenchmarkEmulatorRandRead measures the wall-clock cost of 4 KiB random
// reads through the hybrid-mapping read path: ReadInto with one reused
// destination, so it times the read body and nothing it allocates.
func BenchmarkEmulatorRandRead(b *testing.B) {
	cfg := config.Small()
	f, err := cfg.NewConZone()
	if err != nil {
		b.Fatal(err)
	}
	// Two full zones: the small config's SLC region can hold exactly two
	// zones' alignment tails.
	region := int64(2) * f.ZoneCapSectors() * units.Sector
	at, err := workload.Prefill(f, 0, 0, region, false)
	if err != nil {
		b.Fatal(err)
	}
	rngSectors := region / units.Sector
	dst := make([][]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := (int64(i) * 2654435761) % rngSectors
		d, err := f.ReadInto(at, lba, 1, dst)
		if err != nil {
			b.Fatal(err)
		}
		at = d
	}
	b.SetBytes(units.Sector)
}

// BenchmarkCombine is the cost of one Fig. 3 ③ combine with stamped data:
// a zone flush stages the first 8 sectors of a program unit in SLC, and
// flushing the 16 that complete it reads them back and programs the merged
// unit. An op is one combined unit, its staging flush included; the staged
// copies die with the combine, so staging GC only erases.
func BenchmarkCombine(b *testing.B) {
	cfg := config.Small()
	f, err := cfg.NewConZone()
	if err != nil {
		b.Fatal(err)
	}
	zc := f.ZoneCapSectors()
	headSectors := cfg.Geometry.SuperblockBytes() / units.Sector
	pu := cfg.Geometry.ProgramUnit / units.Sector
	stamped := make([][]byte, pu)
	for i := range stamped {
		stamped[i] = make([]byte, units.Sector)
		stamped[i][0] = byte(i)
	}
	var at sim.Time
	var lba int64
	do := func(d sim.Time, err error) {
		if err != nil {
			b.Fatal(err)
		}
		at = max(at, d)
	}
	combine := func() {
		if lba%zc+pu > headSectors {
			lba += zc - lba%zc // the next zone: alignment tails stay out of it
		}
		if lba >= int64(f.NumZones())*zc {
			b.StopTimer()
			for z := 0; z < f.NumZones(); z++ {
				do(f.ResetZone(at, z))
			}
			lba = 0
			b.StartTimer()
		}
		zone := int(lba / zc)
		do(f.Write(at, lba, stamped[:8]))
		do(f.Flush(at, zone))
		do(f.Write(at, lba+8, stamped[8:]))
		do(f.Flush(at, zone))
		lba += pu
	}
	// Warm up over three cycles through every zone and its reset, so the
	// media pools hold what the steady state needs.
	for n := 3 * int64(f.NumZones()) * (headSectors / pu); n >= 0; n-- {
		combine()
	}
	before := f.Stats().Combines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combine()
	}
	b.StopTimer()
	if got := f.Stats().Combines - before; got != int64(b.N) {
		b.Fatalf("%d ops ran %d combines", b.N, got)
	}
}
