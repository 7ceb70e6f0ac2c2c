package conzone

// Micro-benchmarks of the emulator's own hot paths (wall-clock performance
// of the library, not virtual-time results). The paper's experiments are
// benchmarked in paper_bench_test.go.

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/l2pcache"
	"github.com/conzone/conzone/internal/mapping"
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
	var at Time
	var lba int64
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
// reads through the hybrid-mapping read path.
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := (int64(i) * 2654435761) % rngSectors
		_, d, err := f.Read(at, lba, 1)
		if err != nil {
			b.Fatal(err)
		}
		at = d
	}
	b.SetBytes(units.Sector)
}

// BenchmarkSequentialFill measures the wall-clock cost of filling one
// paper-scale zone with timing-only writes, per 4 KiB sector. "zone" is
// workload.Prefill of the whole zone. The two chunk-quarter sub-benchmarks
// time only the writes that land in the first and in the last quarter of a
// 4 MiB aggregation chunk: a fill that costs O(sectors written) reads the
// same in both, one that re-walks the chunk up to the write frontier after
// every program unit reads several times higher in the last quarter.
func BenchmarkSequentialFill(b *testing.B) {
	cfg := config.Paper()
	f, err := cfg.NewConZone()
	if err != nil {
		b.Fatal(err)
	}
	zoneSectors := f.ZoneCapSectors()
	var at Time
	resetZone := func() {
		d, err := f.ResetZone(at, 0)
		if err != nil {
			b.Fatal(err)
		}
		at = d
	}
	b.Run("zone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resetZone()
			b.StartTimer()
			d, err := workload.Prefill(f, at, 0, zoneSectors*units.Sector, false)
			if err != nil {
				b.Fatal(err)
			}
			at = d
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*zoneSectors), "ns/sector")
	})

	const step = 32 // sectors per write: divides a chunk quarter
	chunk := cfg.FTL.ChunkSectors
	// The zone's last chunk ends in the alignment tail, which is staged in
	// SLC sector by sector — a different path from the head's program
	// units — so only the chunks before it are timed.
	timedEnd := zoneSectors - chunk
	payloads := make([][]byte, step)
	for _, q := range []struct {
		name   string
		lo, hi int64 // the timed part of each chunk, in quarters
	}{{"chunk-first-quarter", 0, 1}, {"chunk-last-quarter", 3, 4}} {
		b.Run(q.name, func(b *testing.B) {
			var timed time.Duration
			var sectors int64
			for i := 0; i < b.N; i++ {
				resetZone()
				for off := int64(0); off < zoneSectors; off += step {
					in := off < timedEnd && off%chunk >= q.lo*chunk/4 && off%chunk < q.hi*chunk/4
					var t0 time.Time
					if in {
						t0 = time.Now()
					}
					d, err := f.Write(at, off, payloads)
					if err != nil {
						b.Fatal(err)
					}
					at = d
					if in {
						timed += time.Since(t0)
						sectors += step
					}
				}
			}
			b.ReportMetric(float64(timed.Nanoseconds())/float64(sectors), "ns/sector")
		})
	}
}

// BenchmarkImageSave and BenchmarkImageOpen give the persistence layer its
// own number outside bench/: MB/s of host data for saving, and for loading
// and recovering, a paper-scale device with imageBenchMiB written (what
// bench/'s crashmount reports as persist.save/open_mib_per_s, without the
// fill, the power cut and the read-back around it).
const imageBenchMiB = 64

func BenchmarkImageSave(b *testing.B) {
	dev := writtenDevice(b, imageBenchMiB)
	path := filepath.Join(b.TempDir(), "bench.img")
	b.SetBytes(imageBenchMiB << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.SaveImage(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.img")
	if err := writtenDevice(b, imageBenchMiB).SaveImage(path); err != nil {
		b.Fatal(err)
	}
	cfg := PaperConfig()
	b.SetBytes(imageBenchMiB << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := OpenImage(cfg, path)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && dev.FTL().Zones().Report()[0].Written() == 0 {
			b.Fatal("the reopened device lost zone 0")
		}
	}
}

// BenchmarkDeviceRead and BenchmarkDeviceReadInto are the public read-back
// loop of bench/'s crashmount — 64-sector (256 KiB) reads over one filled
// config.Paper() zone — in its two synchronous forms. CI gates the allocs/op
// column: Read allocates the slice it returns and nothing else, ReadInto
// nothing.
func BenchmarkDeviceRead(b *testing.B) {
	benchDeviceRead(b, func(dev *Device, off int64, dst []byte) error {
		_, err := dev.Read(off, len(dst))
		return err
	})
}

func BenchmarkDeviceReadInto(b *testing.B) { benchDeviceRead(b, (*Device).ReadInto) }

func benchDeviceRead(b *testing.B, read func(dev *Device, off int64, dst []byte) error) {
	dev := writtenDevice(b, 16) // one zone
	dst := make([]byte, 64*SectorSize)
	reads := dev.ZoneBytes() / int64(len(dst))
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := read(dev, int64(i)%reads*int64(len(dst)), dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegacyRandRead measures the wall-clock cost of Fig. 7's workload
// shape — 4 KiB random reads over a prefilled range that outgrows the L2P
// cache — on the Legacy comparator, where most reads miss and each miss
// prefetches a 1024-entry window into its page cache. The steady state must
// not allocate (CI checks the allocs/op column).
func BenchmarkLegacyRandRead(b *testing.B) {
	dev, err := config.Paper().NewLegacy()
	if err != nil {
		b.Fatal(err)
	}
	const region = 64 * units.MiB
	at, err := workload.Prefill(dev, 0, 0, region, false)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([][]byte, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := (int64(i) * 2654435761) % (region / units.Sector)
		d, err := dev.ReadInto(at, lba, 1, dst)
		if err != nil {
			b.Fatal(err)
		}
		at = d
	}
	b.SetBytes(units.Sector)
}

// BenchmarkL2PCacheLookup measures the cache's probe cost.
func BenchmarkL2PCacheLookup(b *testing.B) {
	tbl, err := mapping.NewTable(mapping.Config{
		TotalSectors: 1 << 20, ChunkSectors: 1024, ZoneSectors: 4096, AggLimit: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := l2pcache.New(12*units.KiB, 4, tbl)
	if err != nil {
		b.Fatal(err)
	}
	for lpa := int64(0); lpa < 3000; lpa++ {
		c.Insert(mapping.Page, lpa, mapping.PSN(lpa), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(int64(i) % 4000)
	}
}

// BenchmarkMappingAggregation measures chunk-aggregation checks.
func BenchmarkMappingAggregation(b *testing.B) {
	tbl, err := mapping.NewTable(mapping.Config{
		TotalSectors: 1 << 16, ChunkSectors: 1024, ZoneSectors: 4096, AggLimit: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	for lpa := int64(0); lpa < 1<<16; lpa++ {
		if err := tbl.Set(lpa, mapping.PSN(lpa)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.TryAggregateChunk(int64(i) % (1 << 16))
	}
}
