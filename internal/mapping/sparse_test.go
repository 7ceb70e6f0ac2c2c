package mapping

import (
	"math/rand"
	"testing"
)

// flatTable is the reference the zone-sparse table is checked against: one
// PSN and one map-bits entry per logical sector, -1 marking an unmapped
// one — the layout the table used to have.
type flatTable struct {
	psn         []PSN
	bits        []Gran
	chunk, zone int64
	aggLimit    PSN
}

func newFlatTable(cfg Config) *flatTable {
	f := &flatTable{
		psn: make([]PSN, cfg.TotalSectors), bits: make([]Gran, cfg.TotalSectors),
		chunk: cfg.ChunkSectors, zone: cfg.ZoneSectors, aggLimit: cfg.AggLimit,
	}
	for i := range f.psn {
		f.psn[i] = InvalidPSN
	}
	return f
}

func (f *flatTable) demote(lpa int64) {
	n := f.chunk
	if f.bits[lpa] == Zone {
		n = f.zone
	}
	for i := lpa - lpa%n; i < lpa-lpa%n+n; i++ {
		f.bits[i] = Page
	}
}

func (f *flatTable) set(lpa int64, p PSN) {
	if f.bits[lpa] != Page {
		f.demote(lpa)
	}
	f.psn[lpa] = p
}

func (f *flatTable) aggregate(lpa, n int64, g Gran) bool {
	base := lpa - lpa%n
	if f.bits[base] >= g {
		return true
	}
	first := f.psn[base]
	if first == InvalidPSN || first >= f.aggLimit || int64(first)%n != 0 {
		return false
	}
	for i := int64(1); i < n; i++ {
		if f.psn[base+i] != first+PSN(i) {
			return false
		}
	}
	for i := base; i < base+n; i++ {
		f.bits[i] = g
	}
	return true
}

func (f *flatTable) invalidateZone(lpa int64) {
	for i := lpa - lpa%f.zone; i < lpa-lpa%f.zone+f.zone; i++ {
		f.psn[i], f.bits[i] = InvalidPSN, Page
	}
}

func (f *flatTable) effective(lpa int64) (int64, Gran, PSN, bool) {
	if f.psn[lpa] == InvalidPSN {
		return lpa, Page, InvalidPSN, false
	}
	switch f.bits[lpa] {
	case Zone:
		return lpa - lpa%f.zone, Zone, f.psn[lpa-lpa%f.zone], true
	case Chunk:
		return lpa - lpa%f.chunk, Chunk, f.psn[lpa-lpa%f.chunk], true
	}
	return lpa, Page, f.psn[lpa], true
}

// TestSparseTableMatchesFlatModel drives seeded sequences of sets,
// invalidations, sequential runs, chunk and zone aggregation, demotion and
// zone invalidation against the flat reference, comparing every entry and
// the table's invariants after each step — at power-of-two sizes (the
// shift/mask path) and at sizes that are not.
func TestSparseTableMatchesFlatModel(t *testing.T) {
	for _, cfg := range []Config{
		{TotalSectors: 4 * 64, ChunkSectors: 16, ZoneSectors: 64, AggLimit: 4 * 64},
		{TotalSectors: 5 * 36, ChunkSectors: 12, ZoneSectors: 36, AggLimit: 5 * 36},
	} {
		tbl, err := NewTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newFlatTable(cfg)
		rng := rand.New(rand.NewSource(cfg.ZoneSectors))
		for step := 0; step < 4000; step++ {
			lpa := rng.Int63n(cfg.TotalSectors)
			switch op := rng.Intn(16); {
			case op < 4: // scattered set, reserved or staged space
				p := PSN(rng.Int63n(2 * cfg.TotalSectors))
				if err := tbl.Set(lpa, p); err != nil {
					t.Fatal(err)
				}
				ref.set(lpa, p)
			case op < 6:
				if err := tbl.Invalidate(lpa); err != nil {
					t.Fatal(err)
				}
				if ref.bits[lpa] != Page {
					ref.demote(lpa)
				}
				ref.psn[lpa] = InvalidPSN
			case op < 11: // reserved placement of a chunk or a whole zone: PSN = LPA
				n := cfg.ChunkSectors
				if op >= 9 {
					n = cfg.ZoneSectors
				}
				for l := lpa - lpa%n; l < lpa-lpa%n+n; l++ {
					if err := tbl.Set(l, PSN(l)); err != nil {
						t.Fatal(err)
					}
					ref.set(l, PSN(l))
				}
			case op < 13:
				if got, want := tbl.TryAggregateChunk(lpa), ref.aggregate(lpa, cfg.ChunkSectors, Chunk); got != want {
					t.Fatalf("step %d: TryAggregateChunk(%d) = %v, reference %v", step, lpa, got, want)
				}
			case op < 15:
				if got, want := tbl.TryAggregateZone(lpa), ref.aggregate(lpa, cfg.ZoneSectors, Zone); got != want {
					t.Fatalf("step %d: TryAggregateZone(%d) = %v, reference %v", step, lpa, got, want)
				}
			default:
				if err := tbl.InvalidateZone(lpa); err != nil {
					t.Fatal(err)
				}
				ref.invalidateZone(lpa)
			}

			var valid int64
			for l := int64(0); l < cfg.TotalSectors; l++ {
				p, ok := tbl.Get(l)
				if p != ref.psn[l] || ok != (ref.psn[l] != InvalidPSN) || tbl.Bits(l) != ref.bits[l] {
					t.Fatalf("step %d: entry %d = (%d,%v,%v), reference (%d,%v)", step, l, p, ok, tbl.Bits(l), ref.psn[l], ref.bits[l])
				}
				b, g, bp, ok := tbl.Effective(l)
				if rb, rg, rbp, rok := ref.effective(l); b != rb || g != rg || bp != rbp || ok != rok {
					t.Fatalf("step %d: Effective(%d) = (%d,%v,%d,%v), reference (%d,%v,%d,%v)", step, l, b, g, bp, ok, rb, rg, rbp, rok)
				}
				if ok {
					valid++
				}
			}
			if tbl.ValidCount() != valid {
				t.Fatalf("step %d: ValidCount = %d, reference %d", step, tbl.ValidCount(), valid)
			}
			lo, hi := rng.Int63n(cfg.TotalSectors), rng.Int63n(cfg.TotalSectors+1)
			var inRange int64
			for l := lo; l < hi; l++ {
				if ref.psn[l] != InvalidPSN {
					inRange++
				}
			}
			if got := tbl.MappedInRange(lo, hi); got != inRange {
				t.Fatalf("step %d: MappedInRange(%d,%d) = %d, reference %d", step, lo, hi, got, inRange)
			}
			if err := tbl.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
}

// TestTableCostsWhatItMaps pins the sparse layout: a fresh table holds no
// zone, a zone's entries appear with its first Set, and InvalidateZone
// hands them to the next zone that needs a table instead of the collector.
func TestTableCostsWhatItMaps(t *testing.T) {
	tbl, err := NewTable(Config{TotalSectors: 8 * 64, ChunkSectors: 16, ZoneSectors: 64, AggLimit: 8 * 64})
	if err != nil {
		t.Fatal(err)
	}
	resident := func() (n int) {
		for i := range tbl.zones {
			if tbl.zones[i].psn != nil {
				n++
			}
		}
		return n
	}
	if resident() != 0 {
		t.Fatalf("fresh table holds %d zone tables", resident())
	}
	if err := tbl.Set(3*64+5, 7); err != nil {
		t.Fatal(err)
	}
	if resident() != 1 {
		t.Fatalf("one Set made %d zone tables resident", resident())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := tbl.InvalidateZone(3 * 64); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Set(5*64+1, 9); err != nil { // another zone reuses the released table
			t.Fatal(err)
		}
		if p, ok := tbl.Get(5*64 + 2); ok {
			t.Fatalf("recycled zone table leaked entry %d", p)
		}
		if err := tbl.InvalidateZone(5 * 64); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Set(3*64+5, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a reset/rewrite lap allocates %.1f times", allocs)
	}
}
