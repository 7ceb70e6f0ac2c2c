package mapping

import (
	"fmt"
	"math/rand"
	"testing"
)

// setOne is Set as it was before runs: one entry, its chunk demoted first.
// TestSetRunMatchesSingleSets holds SetRun to n of these.
func (t *Table) setOne(lpa int64, psn PSN) error {
	if err := t.check(lpa); err != nil {
		return err
	}
	if psn < 0 || psn > MaxPSN {
		return fmt.Errorf("mapping: Set with invalid PSN %d", psn)
	}
	z, off := t.locate(lpa)
	if z.psn == nil {
		if n := len(t.free); n > 0 {
			*z = t.free[n-1]
			t.free = t.free[:n-1]
			clear(z.psn)
			clear(z.bits)
		} else {
			*z = zoneMap{psn: make([]uint32, t.zone.n), bits: make([]Gran, t.zone.n/t.chunk.n)}
		}
	}
	if c, _ := t.chunk.split(off); z.bits[c] != Page {
		t.demote(z, c)
	}
	z.psn[off] = uint32(psn + 1)
	return nil
}

// sameTables fails unless a and b answer Get, Bits and Effective alike for
// every logical sector and hold tables for the same zones.
func sameTables(t *testing.T, step int, a, b *Table) {
	t.Helper()
	for z := range a.zones {
		if a.Allocated(z) != b.Allocated(z) {
			t.Fatalf("step %d: zone %d Allocated = %v, single sets give %v", step, z, a.Allocated(z), b.Allocated(z))
		}
	}
	for l := int64(0); l < a.total; l++ {
		pa, oka := a.Get(l)
		pb, okb := b.Get(l)
		if pa != pb || oka != okb || a.Bits(l) != b.Bits(l) {
			t.Fatalf("step %d: entry %d = (%d,%v,%v), single sets give (%d,%v,%v)", step, l, pa, oka, a.Bits(l), pb, okb, b.Bits(l))
		}
		ba, ga, bpa, oka := a.Effective(l)
		bb, gb, bpb, okb := b.Effective(l)
		if ba != bb || ga != gb || bpa != bpb || oka != okb {
			t.Fatalf("step %d: Effective(%d) = (%d,%v,%d,%v), single sets give (%d,%v,%d,%v)", step, l, ba, ga, bpa, oka, bb, gb, bpb, okb)
		}
	}
}

// TestSetRunMatchesSingleSets drives seeded runs that start anywhere and
// cross chunk boundaries — over zones that are page-mapped, chunk-aggregated
// and zone-aggregated — against the same runs written one entry at a time,
// and checks that a refused run (out of range, crossing its zone, past
// MaxPSN) leaves the table as it was.
func TestSetRunMatchesSingleSets(t *testing.T) {
	for _, cfg := range []Config{
		{TotalSectors: 4 * 64, ChunkSectors: 16, ZoneSectors: 64, AggLimit: 4 * 64},
		{TotalSectors: 5 * 36, ChunkSectors: 12, ZoneSectors: 36, AggLimit: 5 * 36},
	} {
		runs, err := NewTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		singles, _ := NewTable(cfg)
		rng := rand.New(rand.NewSource(cfg.ChunkSectors))
		var over [3]int // landed runs by the widest map bits they overwrote
		refused := 0
		for step := 0; step < 3000; step++ {
			lpa := rng.Int63n(cfg.TotalSectors)
			switch op := rng.Intn(16); {
			case op < 6: // a run anywhere; it may cross chunks or its zone
				n := 1 + rng.Int63n(3*cfg.ChunkSectors)
				psn := PSN(lpa)
				if op < 2 {
					psn = PSN(rng.Int63n(2 * cfg.TotalSectors))
				}
				crosses := lpa%cfg.ZoneSectors+n > cfg.ZoneSectors
				widest := Page
				for l := lpa; l < lpa+n && l < cfg.TotalSectors; l++ {
					widest = max(widest, runs.Bits(l))
				}
				err := runs.SetRun(lpa, psn, n)
				if crosses {
					if err == nil {
						t.Fatalf("step %d: SetRun(%d, %d, %d) crosses its zone and was accepted", step, lpa, psn, n)
					}
					refused++
					break
				}
				if err != nil {
					t.Fatalf("step %d: SetRun(%d, %d, %d): %v", step, lpa, psn, n, err)
				}
				for i := int64(0); i < n; i++ {
					if err := singles.setOne(lpa+i, psn+PSN(i)); err != nil {
						t.Fatal(err)
					}
				}
				over[widest]++
			case op < 9: // reserved placement of a chunk or a whole zone in one run
				n := cfg.ChunkSectors
				if op == 8 {
					n = cfg.ZoneSectors
				}
				base := lpa - lpa%n
				if err := runs.SetRun(base, PSN(base), n); err != nil {
					t.Fatal(err)
				}
				for l := base; l < base+n; l++ {
					if err := singles.setOne(l, PSN(l)); err != nil {
						t.Fatal(err)
					}
				}
			case op < 11:
				if a, b := runs.TryAggregateChunk(lpa), singles.TryAggregateChunk(lpa); a != b {
					t.Fatalf("step %d: TryAggregateChunk(%d) = %v, single sets give %v", step, lpa, a, b)
				}
			case op < 13:
				if a, b := runs.TryAggregateZone(lpa), singles.TryAggregateZone(lpa); a != b {
					t.Fatalf("step %d: TryAggregateZone(%d) = %v, single sets give %v", step, lpa, a, b)
				}
			case op < 15: // refused: out of range or past MaxPSN
				var err error
				switch rng.Intn(4) {
				case 0:
					err = runs.SetRun(-1-lpa, 0, 2)
				case 1:
					err = runs.SetRun(cfg.TotalSectors+lpa, 0, 1)
				case 2:
					n := 2 + rng.Int63n(4)
					err = runs.SetRun(lpa-lpa%cfg.ZoneSectors, MaxPSN-PSN(rng.Int63n(n-1)), n)
				default:
					err = runs.SetRun(lpa, PSN(lpa), -1)
				}
				if err == nil {
					t.Fatalf("step %d: a run that must be refused was accepted", step)
				}
				refused++
			default:
				if err := runs.InvalidateZone(lpa); err != nil {
					t.Fatal(err)
				}
				if err := singles.InvalidateZone(lpa); err != nil {
					t.Fatal(err)
				}
			}
			sameTables(t, step, runs, singles)
			if err := runs.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for g, n := range over {
			if n == 0 {
				t.Errorf("%+v: no run landed over %v-mapped entries", cfg, Gran(g))
			}
		}
		if refused == 0 {
			t.Errorf("%+v: no run was refused", cfg)
		}
	}
}
