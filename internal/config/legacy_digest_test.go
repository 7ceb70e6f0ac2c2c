package config

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// legacyDigest is comparatorDigest for the zoneless page-mapping device: a
// seeded stream of writes, reads, flushes and a few out-of-range ops, hashed
// the same way plus legacy.Stats. The mixed stream overwrites single sectors
// of a hot third and walks multi-sector runs through the cold two thirds
// (SLC staging, its drain, GC victims that leave a sub-unit remainder); the
// whole-unit stream writes program units at unit-aligned addresses anywhere
// (greedy GC moving whole units, nothing staged).
func legacyDigest(t *testing.T, cfg DeviceConfig, seed uint64, ops int, wholeUnits bool) uint64 {
	dev, err := cfg.NewLegacy()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	r := sim.NewRand(seed)
	total := dev.TotalSectors()
	pu := cfg.Geometry.ProgramUnit / units.Sector
	hot := total / 3
	cold := hot // cursor over [hot, total)
	var now sim.Time
	var seq int64
	for i := 0; i < ops; i++ {
		n := comparatorLens[r.Int63n(int64(len(comparatorLens)))]
		bad := r.Float64() < 0.05
		var done sim.Time
		var err error
		switch p := r.Float64(); {
		case p < 0.60:
			lba := r.Int63n(hot)
			switch {
			case wholeUnits:
				n = pu * (1 + n%4)
				lba = r.Int63n((total-n)/pu) * pu
			case p < 0.45:
				n = 1
			default:
				if cold+n > total {
					cold = hot
				}
				lba, cold = cold, cold+n
			}
			if bad {
				lba = total - 1
				n = 2 // past the end
			}
			payloads := make([][]byte, n)
			for j := range payloads {
				seq++
				payloads[j] = make([]byte, units.Sector)
				binary.LittleEndian.PutUint64(payloads[j], uint64(lba)+uint64(j))
				binary.LittleEndian.PutUint64(payloads[j][8:], uint64(seq))
			}
			done, err = dev.Write(now, lba, payloads)
		case p < 0.92:
			lba := r.Int63n(total - n)
			if bad {
				lba = total
			}
			out := make([][]byte, n)
			if done, err = dev.ReadInto(now, lba, n, out); err != nil {
				out = nil // a failed read's container is unspecified
			}
			for _, s := range out {
				if s == nil {
					put(-1)
					continue
				}
				h.Write(s[:16])
			}
		default:
			done, err = dev.Flush(now)
			bad = false // a flush has no invalid form
		}
		if (err != nil) != bad {
			t.Fatalf("op %d: err %v, want an error: %v", i, err, bad)
		}
		put(int64(done))
		if err != nil {
			put(1)
		} else {
			put(0)
		}
		if r.Float64() < 0.75 {
			now = sim.Max(now, done)
		} else {
			now = now.Add(1000)
		}
	}
	st := dev.Stats()
	fmt.Fprintf(h, "%+v%+v", dev.Array().Counters(), st)
	geo := dev.Array().Geometry()
	for sb := 0; sb < geo.NormalBlocks(); sb++ {
		put(dev.Array().EraseCount(0, geo.FirstNormalBlock()+sb))
	}
	return h.Sum64()
}

// legacyDigests: the small-units and paper-mixed rows were produced by this
// file at commit 7c141a9, before the legacy GC stopped re-entering itself
// (go test -run TestLegacyMatchesParent -v prints them). The parent does not
// survive the small-mixed stream — seed 1 dies at op 3977 with "nand:
// out-of-order program: block 0/7 expects sector 96, got 0" — so those rows
// are PR 22's: the one path whose timing the fix moved (a collection now
// erases its victim before it stages the sub-unit remainder).
var legacyDigests = map[string]uint64{
	"legacy/small-units/0x1":        0x4d72eb0fe1430db8,
	"legacy/small-units/0xc0ffee":   0x7f9757f713de4825,
	"legacy/small-units/0x5eed5eed": 0x1124129459dddb0b,
	"legacy/paper-mixed/0x1":        0x74d18596a78515c7,
	"legacy/paper-mixed/0xc0ffee":   0x51474cc418d78d0e,
	"legacy/paper-mixed/0x5eed5eed": 0xf0541a6c931bb551,
	"legacy/small-mixed/0x1":        0x2acaa49c2aa78dc6,
	"legacy/small-mixed/0xc0ffee":   0xd31323e69abc42fd,
	"legacy/small-mixed/0x5eed5eed": 0xb8c04fc21484083f,
}

// TestLegacyMatchesParent pins the legacy comparator's virtual-time
// behaviour — buffer flushes, SLC staging and its drain, greedy GC, the
// prefetching L2P cache — to what it did before its GC was restructured.
// The unit stream wraps Small() many times (~470 collections moving
// ~125,000 sectors, nothing staged); the mixed stream on Paper() fills and
// drains the SLC cache (~16,500 sectors staged, ~5,200 drained) without
// filling the device; on Small() it also collects (~55 times), leaving
// remainders.
func TestLegacyMatchesParent(t *testing.T) {
	presets := []struct {
		name       string
		cfg        DeviceConfig
		ops        int
		wholeUnits bool
	}{{"small-units", Small(), 3000, true}, {"paper-mixed", Paper(), 16000, false}, {"small-mixed", Small(), 6000, false}}
	for _, p := range presets {
		for _, seed := range []uint64{1, 0xC0FFEE, 0x5EED5EED} {
			key := fmt.Sprintf("legacy/%s/%#x", p.name, seed)
			got := legacyDigest(t, p.cfg, seed, p.ops, p.wholeUnits)
			t.Logf("%q: %#x,", key, got)
			if want := legacyDigests[key]; got != want {
				t.Errorf("%s: digest %#x, parent %#x", key, got, want)
			}
		}
	}
}
