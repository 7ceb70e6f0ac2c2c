package mapping

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// table: 2 zones of 16 sectors, chunks of 4 sectors, SLC space at PSN>=1000.
func newTestTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(Config{TotalSectors: 32, ChunkSectors: 4, ZoneSectors: 16, AggLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	bad := []Config{
		{TotalSectors: 0, ChunkSectors: 4, ZoneSectors: 16},
		{TotalSectors: 32, ChunkSectors: 0, ZoneSectors: 16},
		{TotalSectors: 32, ChunkSectors: 4, ZoneSectors: 0},
		{TotalSectors: 32, ChunkSectors: 5, ZoneSectors: 16},
		{TotalSectors: 33, ChunkSectors: 4, ZoneSectors: 16},
		{TotalSectors: 32, ChunkSectors: 4, ZoneSectors: 16, AggLimit: -1},
	}
	for i, cfg := range bad {
		if _, err := NewTable(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGranString(t *testing.T) {
	if Page.String() != "page" || Chunk.String() != "chunk" || Zone.String() != "zone" {
		t.Error("granularity names wrong")
	}
	if !strings.Contains(Gran(9).String(), "9") {
		t.Error("unknown gran string")
	}
}

func TestSetGet(t *testing.T) {
	tbl := newTestTable(t)
	if _, ok := tbl.Get(0); ok {
		t.Error("fresh table should be invalid")
	}
	if err := tbl.Set(3, 42); err != nil {
		t.Fatal(err)
	}
	p, ok := tbl.Get(3)
	if !ok || p != 42 {
		t.Errorf("Get = %d, %v", p, ok)
	}
	if tbl.Bits(3) != Page {
		t.Error("fresh entry should be page granularity")
	}
	if err := tbl.Set(99, 1); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := tbl.Set(0, InvalidPSN); err == nil {
		t.Error("invalid PSN accepted")
	}
	if _, ok := tbl.Get(-1); ok {
		t.Error("negative LPA accepted")
	}
}

func TestInvalidate(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Set(5, 7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Invalidate(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(5); ok {
		t.Error("invalidated entry still valid")
	}
	if err := tbl.Invalidate(-1); err == nil {
		t.Error("bad LPA accepted")
	}
}

func fillRun(t *testing.T, tbl *Table, baseLPA int64, basePSN PSN, n int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		if err := tbl.Set(baseLPA+i, basePSN+PSN(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChunkAggregation(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 4, 8, 4) // chunk 1: LPAs 4..7 -> PSNs 8..11, aligned
	if !tbl.TryAggregateChunk(4) {
		t.Fatal("aligned contiguous chunk should aggregate")
	}
	for i := int64(4); i < 8; i++ {
		if tbl.Bits(i) != Chunk {
			t.Errorf("LPA %d bits = %v", i, tbl.Bits(i))
		}
	}
	base, g, psn, ok := tbl.Effective(6)
	if !ok || base != 4 || g != Chunk || psn != 8 {
		t.Errorf("Effective(6) = %d %v %d %v", base, g, psn, ok)
	}
	// Idempotent.
	if !tbl.TryAggregateChunk(5) {
		t.Error("re-aggregation should report true")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestChunkAggregationRejectsMisaligned(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 4, 9, 4) // contiguous but PSN 9 not 4-aligned
	if tbl.TryAggregateChunk(4) {
		t.Error("misaligned run aggregated")
	}
	tbl2 := newTestTable(t)
	fillRun(t, tbl2, 4, 8, 3)
	_ = tbl2.Set(7, 99) // discontinuity
	if tbl2.TryAggregateChunk(4) {
		t.Error("discontinuous run aggregated")
	}
}

func TestChunkAggregationRejectsSLC(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 0, 1000, 4) // in SLC space (>= AggLimit), aligned
	if tbl.TryAggregateChunk(0) {
		t.Error("SLC-resident run aggregated")
	}
}

func TestChunkAggregationRejectsPartial(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 0, 0, 3) // last sector of chunk unmapped
	if tbl.TryAggregateChunk(0) {
		t.Error("partially mapped chunk aggregated")
	}
}

func TestZoneAggregation(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 16, 16, 16) // zone 1 fully contiguous, zone-aligned PSN
	for lpa := int64(16); lpa < 32; lpa += 4 {
		if !tbl.TryAggregateChunk(lpa) {
			t.Fatalf("chunk at %d should aggregate", lpa)
		}
	}
	if !tbl.TryAggregateZone(16) {
		t.Fatal("full zone should aggregate")
	}
	base, g, psn, ok := tbl.Effective(31)
	if !ok || base != 16 || g != Zone || psn != 16 {
		t.Errorf("Effective(31) = %d %v %d %v", base, g, psn, ok)
	}
	if !tbl.TryAggregateZone(20) {
		t.Error("idempotent zone aggregation")
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestZoneAggregationRejectsHole(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 16, 16, 16)
	_ = tbl.Invalidate(20)
	if tbl.TryAggregateZone(16) {
		t.Error("zone with hole aggregated")
	}
}

func TestSetDemotesAggregation(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 4, 8, 4)
	if !tbl.TryAggregateChunk(4) {
		t.Fatal("setup")
	}
	// Remapping one sector must demote the chunk back to page bits.
	if err := tbl.Set(5, 50); err != nil {
		t.Fatal(err)
	}
	for i := int64(4); i < 8; i++ {
		if tbl.Bits(i) != Page {
			t.Errorf("LPA %d bits = %v after demote", i, tbl.Bits(i))
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvalidateDemotesZone(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 16, 16, 16)
	if !tbl.TryAggregateZone(16) {
		t.Fatal("setup")
	}
	if err := tbl.Invalidate(25); err != nil {
		t.Fatal(err)
	}
	for i := int64(16); i < 32; i++ {
		if tbl.Bits(i) != Page {
			t.Errorf("LPA %d bits = %v", i, tbl.Bits(i))
		}
	}
	if err := tbl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEffectivePage(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.Set(9, 77)
	base, g, psn, ok := tbl.Effective(9)
	if !ok || base != 9 || g != Page || psn != 77 {
		t.Errorf("Effective = %d %v %d %v", base, g, psn, ok)
	}
	_, _, _, ok = tbl.Effective(10)
	if ok {
		t.Error("unmapped LPA should not be effective")
	}
}

func TestSectorsOf(t *testing.T) {
	tbl := newTestTable(t)
	if tbl.SectorsOf(Page) != 1 || tbl.SectorsOf(Chunk) != 4 || tbl.SectorsOf(Zone) != 16 {
		t.Error("SectorsOf wrong")
	}
}

func TestInvalidateZone(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 16, 16, 16)
	_ = tbl.TryAggregateZone(16)
	if err := tbl.InvalidateZone(20); err != nil {
		t.Fatal(err)
	}
	for i := int64(16); i < 32; i++ {
		if _, ok := tbl.Get(i); ok {
			t.Fatalf("LPA %d still mapped after zone invalidate", i)
		}
		if tbl.Bits(i) != Page {
			t.Fatalf("LPA %d bits not reset", i)
		}
	}
	if tbl.ValidCount() != 0 {
		t.Errorf("ValidCount = %d", tbl.ValidCount())
	}
	if err := tbl.InvalidateZone(100); err == nil {
		t.Error("bad LPA accepted")
	}
}

func TestValidCount(t *testing.T) {
	tbl := newTestTable(t)
	fillRun(t, tbl, 0, 0, 5)
	if tbl.ValidCount() != 5 {
		t.Errorf("ValidCount = %d", tbl.ValidCount())
	}
}

// Property: any sequence of Set/Invalidate/TryAggregate operations keeps
// the table's invariants and Effective() always agrees with Get().
func TestMappingInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tbl, err := NewTable(Config{TotalSectors: 64, ChunkSectors: 4, ZoneSectors: 16, AggLimit: 500})
		if err != nil {
			return false
		}
		for _, op := range ops {
			lpa := int64(op % 64)
			switch (op >> 6) % 4 {
			case 0:
				_ = tbl.Set(lpa, PSN(op%600))
			case 1:
				_ = tbl.Invalidate(lpa)
			case 2:
				tbl.TryAggregateChunk(lpa)
			case 3:
				tbl.TryAggregateZone(lpa)
			}
			if tbl.CheckInvariants() != nil {
				return false
			}
			// Effective must agree with the page table for every LPA.
			for l := int64(0); l < 64; l++ {
				p, ok := tbl.Get(l)
				base, g, bp, eok := tbl.Effective(l)
				if ok != eok {
					return false
				}
				if ok {
					want := bp + PSN(l-base)
					if g == Page {
						want = bp
					}
					if p != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// walkAggregatable is the aggregation test without the last-entry shortcut:
// every entry of the run compared in order, read through the public Get.
func walkAggregatable(tbl *Table, baseLPA, n int64, aggLimit PSN) bool {
	first, ok := tbl.Get(baseLPA)
	if !ok || first >= aggLimit || int64(first)%n != 0 {
		return false
	}
	for i := int64(0); i < n; i++ {
		if p, ok := tbl.Get(baseLPA + i); !ok || p != first+PSN(i) {
			return false
		}
	}
	return true
}

// TestAggregationRejectCases pins the O(1) reject against the cases it could
// get wrong: the run's last entry is tested before the walk, so a mismatch
// anywhere else must still be found by the walk, and a mismatch at the last
// entry alone must be enough.
func TestAggregationRejectCases(t *testing.T) {
	// The limit is aligned to both run lengths, so "at the limit" means the
	// same for a chunk and a zone.
	const chunk, zone, limit = 8, 32, 960
	fixed := func(p PSN) func(int64) PSN { return func(int64) PSN { return p } }
	keep := func(*Table, int64) {}
	cases := []struct {
		name string
		base func(n int64) PSN   // PSN of the run's first entry
		edit func(*Table, int64) // applied after the clean fill of n entries
		want bool
	}{
		{"clean", fixed(64), keep, true},
		{"last entry wrong", fixed(64), func(tb *Table, n int64) { _ = tb.Set(n-1, 500) }, false},
		{"last entry unmapped", fixed(64), func(tb *Table, n int64) { _ = tb.Invalidate(n - 1) }, false},
		{"middle entry wrong", fixed(64), func(tb *Table, n int64) { _ = tb.Set(n/2, 500) }, false},
		{"middle entry unmapped", fixed(64), func(tb *Table, n int64) { _ = tb.Invalidate(n / 2) }, false},
		{"second entry wrong", fixed(64), func(tb *Table, n int64) { _ = tb.Set(1, 500) }, false},
		{"first entry unmapped", fixed(64), func(tb *Table, n int64) { _ = tb.Invalidate(0) }, false},
		{"first entry wrong", fixed(64), func(tb *Table, n int64) { _ = tb.Set(0, 32) }, false},
		{"unaligned first", fixed(65), keep, false},
		{"run ends at the limit", func(n int64) PSN { return limit - PSN(n) }, keep, true},
		{"run starts at the limit", fixed(limit), keep, false},
		{"run above the limit", fixed(limit + zone), keep, false},
	}
	for _, tc := range cases {
		for _, g := range []Gran{Chunk, Zone} {
			tbl, err := NewTable(Config{TotalSectors: 2 * zone, ChunkSectors: chunk, ZoneSectors: zone, AggLimit: limit})
			if err != nil {
				t.Fatal(err)
			}
			n, try := int64(chunk), tbl.TryAggregateChunk
			if g == Zone {
				n, try = zone, tbl.TryAggregateZone
			}
			fillRun(t, tbl, 0, tc.base(n), n)
			tc.edit(tbl, n)
			if walk := walkAggregatable(tbl, 0, n, limit); walk != tc.want {
				t.Fatalf("%s/%v: the case itself is wrong: the full walk says %v", tc.name, g, walk)
			}
			if got := try(0); got != tc.want {
				t.Errorf("%s/%v: aggregated = %v, want %v", tc.name, g, got, tc.want)
			}
			if got := tbl.Bits(n-1) == g; got != tc.want {
				t.Errorf("%s/%v: last entry marked %v, want promoted = %v", tc.name, g, tbl.Bits(n-1), tc.want)
			}
			if err := tbl.CheckInvariants(); err != nil {
				t.Errorf("%s/%v: %v", tc.name, g, err)
			}
		}
	}
}

// TestAggregationMatchesFullWalk compares promotion decisions with the full
// walk on seeded tables whose runs are clean except for a few random edits.
func TestAggregationMatchesFullWalk(t *testing.T) {
	const chunk, zone, limit = 8, 32, 96
	rng := rand.New(rand.NewSource(14))
	promoted := 0
	for iter := 0; iter < 2000; iter++ {
		tbl, err := NewTable(Config{TotalSectors: zone, ChunkSectors: chunk, ZoneSectors: zone, AggLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		fillRun(t, tbl, 0, PSN(rng.Intn(5)*chunk), zone)
		for e := rng.Intn(3); e > 0; e-- {
			lpa := int64(rng.Intn(zone))
			if rng.Intn(2) == 0 {
				_ = tbl.Invalidate(lpa)
			} else {
				_ = tbl.Set(lpa, PSN(rng.Intn(limit+chunk)))
			}
		}
		for base := int64(0); base < zone; base += chunk {
			want := walkAggregatable(tbl, base, chunk, limit)
			if got := tbl.TryAggregateChunk(base); got != want {
				t.Fatalf("iter %d chunk %d: aggregated = %v, full walk says %v", iter, base, got, want)
			}
			if want {
				promoted++
			}
		}
		want := walkAggregatable(tbl, 0, zone, limit)
		if got := tbl.TryAggregateZone(0); got != want {
			t.Fatalf("iter %d zone: aggregated = %v, full walk says %v", iter, got, want)
		}
		if err := tbl.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
	if promoted == 0 {
		t.Error("no run ever qualified: the comparison is vacuous")
	}
}

// BenchmarkMappingAggregation measures chunk-aggregation checks.
func BenchmarkMappingAggregation(b *testing.B) {
	tbl, err := NewTable(Config{
		TotalSectors: 1 << 16, ChunkSectors: 1024, ZoneSectors: 4096, AggLimit: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	for lpa := int64(0); lpa < 1<<16; lpa++ {
		if err := tbl.Set(lpa, PSN(lpa)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.TryAggregateChunk(int64(i) % (1 << 16))
	}
}
