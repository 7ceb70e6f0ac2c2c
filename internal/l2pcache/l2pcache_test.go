package l2pcache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/conzone/conzone/internal/mapping"
)

// Cache over a table with 4-sector chunks and 16-sector zones.
func newTestCache(t *testing.T, capBytes int64) (*Cache, *mapping.Table) {
	t.Helper()
	tbl, err := mapping.NewTable(mapping.Config{TotalSectors: 64, ChunkSectors: 4, ZoneSectors: 16, AggLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(capBytes, 4, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func TestNewValidation(t *testing.T) {
	tbl, _ := mapping.NewTable(mapping.Config{TotalSectors: 16, ChunkSectors: 4, ZoneSectors: 16, AggLimit: 10})
	if _, err := New(0, 4, tbl); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(16, 0, tbl); err == nil {
		t.Error("zero entry size accepted")
	}
	if _, err := New(2, 4, tbl); err == nil {
		t.Error("capacity below one entry accepted")
	}
	if _, err := New(16, 4, nil); err == nil {
		t.Error("nil table accepted")
	}
}

func TestInsertLookupPage(t *testing.T) {
	c, _ := newTestCache(t, 16)
	if !c.Insert(mapping.Page, 5, 123, false) {
		t.Fatal("insert failed")
	}
	psn, ok := c.Lookup(5)
	if !ok || psn != 123 {
		t.Errorf("Lookup = %d, %v", psn, ok)
	}
	if _, ok := c.Lookup(6); ok {
		t.Error("unexpected hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLookupAggregatedOffsets(t *testing.T) {
	c, _ := newTestCache(t, 64)
	// Chunk entry: LPAs 4..7 map to PSNs 40..43.
	c.Insert(mapping.Chunk, 6, 40, false) // any LPA inside the chunk works
	for i := int64(4); i < 8; i++ {
		psn, ok := c.Lookup(i)
		if !ok || psn != mapping.PSN(40+i-4) {
			t.Errorf("Lookup(%d) = %d, %v", i, psn, ok)
		}
	}
	// Zone entry: LPAs 16..31 -> PSNs 160..175.
	c.Insert(mapping.Zone, 16, 160, false)
	psn, ok := c.Lookup(31)
	if !ok || psn != 175 {
		t.Errorf("zone Lookup = %d, %v", psn, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := newTestCache(t, 12) // 3 entries
	c.Insert(mapping.Page, 1, 10, false)
	c.Insert(mapping.Page, 2, 20, false)
	c.Insert(mapping.Page, 3, 30, false)
	// Touch 1 so 2 becomes LRU.
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("expected hit")
	}
	c.Insert(mapping.Page, 9, 90, false) // evicts 2
	if _, ok := c.Lookup(2); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	c, _ := newTestCache(t, 16)
	c.Insert(mapping.Page, 5, 1, false)
	c.Insert(mapping.Page, 5, 2, false)
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	psn, _ := c.Lookup(5)
	if psn != 2 {
		t.Errorf("psn = %d", psn)
	}
}

func TestWiderEntryEvictsCovered(t *testing.T) {
	c, _ := newTestCache(t, 256)
	// Page entries inside chunk 0 and one outside.
	c.Insert(mapping.Page, 0, 100, false)
	c.Insert(mapping.Page, 3, 103, false)
	c.Insert(mapping.Page, 4, 104, false) // chunk 1, must survive
	c.Insert(mapping.Chunk, 0, 100, false)
	if c.Contains(mapping.Page, 0) || c.Contains(mapping.Page, 3) {
		t.Error("covered page entries not dropped")
	}
	if !c.Contains(mapping.Page, 4) {
		t.Error("uncovered entry dropped")
	}
	if c.Stats().Covered != 2 {
		t.Errorf("covered = %d", c.Stats().Covered)
	}
	// Zone insert drops covered chunk entries too.
	c.Insert(mapping.Chunk, 4, 104, false)
	c.Insert(mapping.Zone, 0, 100, false)
	if c.Contains(mapping.Chunk, 0) || c.Contains(mapping.Chunk, 4) {
		t.Error("covered chunk entries not dropped")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c, _ := newTestCache(t, 8) // 2 entries
	c.Insert(mapping.Chunk, 0, 0, true)
	c.Insert(mapping.Page, 20, 1, false)
	c.Insert(mapping.Page, 21, 2, false) // evicts LPA 20, not the pinned chunk
	if !c.Contains(mapping.Chunk, 0) {
		t.Error("pinned entry evicted")
	}
	if c.Contains(mapping.Page, 20) {
		t.Error("unpinned LRU survived")
	}
}

func TestAllPinnedDropsUnpinnedInsert(t *testing.T) {
	c, _ := newTestCache(t, 8)
	c.Insert(mapping.Chunk, 0, 0, true)
	c.Insert(mapping.Chunk, 4, 4, true)
	if c.Insert(mapping.Page, 40, 9, false) {
		t.Error("unpinned insert should be dropped when all residents are pinned")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	// A pinned insert may transiently exceed the budget.
	if !c.Insert(mapping.Zone, 16, 16, true) {
		t.Error("pinned insert must succeed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvalidateRange(t *testing.T) {
	c, _ := newTestCache(t, 256)
	c.Insert(mapping.Page, 5, 5, false)
	c.Insert(mapping.Chunk, 8, 8, true) // pinned entries are removed too
	c.Insert(mapping.Zone, 16, 16, false)
	c.Insert(mapping.Page, 40, 40, false) // outside the range
	c.InvalidateRange(0, 32)
	if c.Contains(mapping.Page, 5) || c.Contains(mapping.Chunk, 8) || c.Contains(mapping.Zone, 16) {
		t.Error("entries in range survived invalidation")
	}
	if !c.Contains(mapping.Page, 40) {
		t.Error("entry outside range removed")
	}
	c.InvalidateRange(0, 0) // no-op
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInvalidateRangePartialOverlap(t *testing.T) {
	c, _ := newTestCache(t, 256)
	c.Insert(mapping.Zone, 0, 0, false)
	// Range [14,18) overlaps zone entry [0,16).
	c.InvalidateRange(14, 4)
	if c.Contains(mapping.Zone, 0) {
		t.Error("partially overlapped zone entry survived")
	}
}

// TestMissRatio checks the two counts the miss ratio is derived from
// (telemetry computes it from Stats): one lookup that hits, one that misses.
func TestMissRatio(t *testing.T) {
	c, _ := newTestCache(t, 64)
	if c.Stats() != (Stats{}) {
		t.Errorf("idle stats = %+v, want zero", c.Stats())
	}
	c.Insert(mapping.Page, 0, 0, false)
	c.Lookup(0)
	c.Lookup(1)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits = %d, misses = %d, want 1 and 1", st.Hits, st.Misses)
	}
}

func TestMaxEntries(t *testing.T) {
	c, _ := newTestCache(t, 12*1024)
	if c.MaxEntries() != 3072 {
		t.Errorf("MaxEntries = %d, want 3072 (paper: 12 KiB / 4 B)", c.MaxEntries())
	}
	if c.Capacity() != 12*1024 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

// Property: random insert/lookup/invalidate sequences never violate byte
// accounting, and a lookup hit always returns the PSN most recently
// inserted for the covering entry.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tbl, err := mapping.NewTable(mapping.Config{TotalSectors: 64, ChunkSectors: 4, ZoneSectors: 16, AggLimit: 1000})
		if err != nil {
			return false
		}
		c, err := New(20, 4, tbl)
		if err != nil {
			return false
		}
		for _, op := range ops {
			lpa := int64(op % 64)
			switch (op >> 6) % 4 {
			case 0:
				c.Insert(mapping.Page, lpa, mapping.PSN(op), false)
			case 1:
				c.Insert(mapping.Chunk, lpa, mapping.PSN(lpa-lpa%4), (op>>8)%7 == 0)
			case 2:
				c.Lookup(lpa)
			case 3:
				c.InvalidateRange(lpa, int64(op%8))
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestProbeOrderPrefersWider(t *testing.T) {
	c, _ := newTestCache(t, 64)
	// Both a zone entry and a conflicting page entry exist; the zone entry
	// must win because LZA is probed first.
	c.Insert(mapping.Page, 17, 999, false)
	c.Insert(mapping.Zone, 16, 160, false) // covers 16..31, drops page 17
	psn, ok := c.Lookup(17)
	if !ok || psn != 161 {
		t.Errorf("Lookup = %d, %v; zone entry should win", psn, ok)
	}
}

// newBenchCache builds a cache over a realistically wide table: 4096-sector
// zones (16 MiB) and 1024-sector chunks, paper geometry.
func newBenchCache(b *testing.B, capBytes int64) (*Cache, *mapping.Table) {
	b.Helper()
	tbl, err := mapping.NewTable(mapping.Config{
		TotalSectors: 96 * 4096, ChunkSectors: 1024, ZoneSectors: 4096, AggLimit: 96 * 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(capBytes, 4, tbl)
	if err != nil {
		b.Fatal(err)
	}
	return c, tbl
}

// BenchmarkInsertZoneAggregationHeavy measures wide-entry inserts into a
// small cache. Each zone insert must drop the narrower entries it covers;
// a full-span probe walks 4096+ page bases per insert, while the resident
// walk is bounded by the cache's ~3k entries — and by the actual resident
// count, which here is far smaller.
func BenchmarkInsertZoneAggregationHeavy(b *testing.B) {
	c, _ := newBenchCache(b, 12*1024) // 3072 entries, the paper's budget
	// A light resident population, as after aggregation has consolidated.
	for i := int64(0); i < 64; i++ {
		c.Insert(mapping.Page, i*31%4096, mapping.PSN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zone := int64(i % 96)
		c.Insert(mapping.Zone, zone*4096, mapping.PSN(zone*4096), false)
	}
}

// BenchmarkInvalidateRangeZoneReset measures the zone-reset invalidation
// path with few resident entries, where the bounded scan beats probing
// every page, chunk and zone base in the 4096-sector span.
func BenchmarkInvalidateRangeZoneReset(b *testing.B) {
	c, _ := newBenchCache(b, 12*1024)
	for i := int64(0); i < 128; i++ {
		c.Insert(mapping.Page, i*67%(96*4096), mapping.PSN(i), false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InvalidateRange(int64(i%96)*4096, 4096)
	}
}

// newGiBCache builds a paper-sized cache (12 KiB, 3072 entries) over 1 GiB
// of paper geometry, with 4096 LPAs spread over it for the lookups.
func newGiBCache(tb testing.TB) (*Cache, []int64) {
	tb.Helper()
	tbl, err := mapping.NewTable(mapping.Config{
		TotalSectors: gibSectors, ChunkSectors: 1024, ZoneSectors: 4096, AggLimit: gibSectors,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(12*1024, 4, tbl)
	if err != nil {
		tb.Fatal(err)
	}
	lpas := make([]int64, 4096)
	x := uint64(0x5EED)
	for i := range lpas {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		lpas[i] = int64(x % gibSectors)
	}
	return c, lpas
}

const gibSectors = 1 << 18 // 1 GiB of 4 KiB sectors

// fillPages fills c with page entries at lpas' addresses until it is full.
func fillPages(c *Cache, lpas []int64) {
	for _, l := range lpas {
		if int64(c.Len()) == c.MaxEntries() {
			return
		}
		c.Insert(mapping.Page, l, mapping.PSN(l), false)
	}
}

// TestSteadyStateZeroAlloc pins that a full cache's lookup hit and its
// miss-insert-evict cycle allocate nothing: the slot table has grown to its
// size and every evicted node is reused.
func TestSteadyStateZeroAlloc(t *testing.T) {
	c, lpas := newGiBCache(t)
	fillPages(c, lpas)
	i := 0
	missInsertEvict := func() {
		l := lpas[i&4095] ^ 1<<17 // outside the cached set: a miss
		i++
		if _, ok := c.Lookup(l); !ok {
			c.Insert(mapping.Page, l, mapping.PSN(l), false)
		}
	}
	for range 2 * c.MaxEntries() {
		missInsertEvict() // the table reaches its steady size
	}
	if a := testing.AllocsPerRun(1000, missInsertEvict); a != 0 {
		t.Errorf("miss-insert-evict allocates %v times per cycle", a)
	}
	hot := lpas[(i-1)&4095] ^ 1<<17
	if a := testing.AllocsPerRun(1000, func() { c.Lookup(hot) }); a != 0 {
		t.Errorf("lookup hit allocates %v times", a)
	}
	if c.Stats().Evictions == 0 {
		t.Error("the cycle never evicted")
	}
}

// TestCacheArenaSteadyState pins the arena's sizing on a paper-sized cache
// of page entries over 1 GiB: once the first fill has grown the slot table
// and the arena, misses that insert and evict, a zone-sized invalidation
// and a refill neither grow them nor allocate, the table stays at most one
// eighth full, and the table plus the arena cost at most 228 KiB: 10 % over
// the 208 KiB a half-loaded table of pointers to 48-byte heap nodes costs,
// so the short probe runs cost no extra memory.
func TestCacheArenaSteadyState(t *testing.T) {
	c, lpas := newGiBCache(t)
	check := func(phase string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", phase, err)
		}
		if 8*c.Len() > len(c.slots) {
			t.Fatalf("after %s: %d entries in %d slots, over one-eighth load", phase, c.Len(), len(c.slots))
		}
	}
	fillPages(c, lpas)
	check("the first fill")
	if int64(c.Len()) != c.MaxEntries() {
		t.Fatalf("the fill holds %d entries, want %d", c.Len(), c.MaxEntries())
	}
	slots, arena := len(c.slots), cap(c.nodes)
	if bytes := slots*int(unsafe.Sizeof(int32(0))) + arena*int(unsafe.Sizeof(node{})); bytes > 228<<10 {
		t.Errorf("%d slots and %d arena nodes take %d B, over 228 KiB", slots, arena, bytes)
	}
	sameSize := func(phase string) {
		t.Helper()
		if len(c.slots) != slots || cap(c.nodes) != arena {
			t.Errorf("after %s: %d slots and arena capacity %d, want %d and %d", phase, len(c.slots), cap(c.nodes), slots, arena)
		}
	}
	i := 0
	cycle := func() {
		l := lpas[i&4095] ^ 1<<17 // outside the first fill's set: a miss
		i++
		if _, ok := c.Lookup(l); !ok {
			c.Insert(mapping.Page, l, mapping.PSN(l), false)
		}
	}
	for range 10000 {
		cycle()
	}
	check("10,000 miss-insert-evict cycles")
	sameSize("10,000 miss-insert-evict cycles")
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("a miss-insert-evict cycle allocates %v times", a)
	}
	before := c.Len()
	zone := lpas[(i-1)&4095] ^ 1<<17
	zone -= zone % 4096
	c.InvalidateRange(zone, 4096)
	check("a zone-sized InvalidateRange")
	if c.Len() >= before {
		t.Errorf("InvalidateRange of the zone at LPA %d removed nothing", zone)
	}
	fillPages(c, lpas)
	check("the refill")
	sameSize("the refill")
	if int64(c.Len()) != c.MaxEntries() {
		t.Errorf("the refill holds %d entries, want %d", c.Len(), c.MaxEntries())
	}
}

// BenchmarkLookupHit measures a lookup that hits at each granularity in a
// paper-sized cache: every zone, or every chunk, of 1 GiB resident, or a
// full cache of page entries probed at their own addresses.
func BenchmarkLookupHit(b *testing.B) {
	for _, g := range []mapping.Gran{mapping.Zone, mapping.Chunk, mapping.Page} {
		b.Run(g.String(), func(b *testing.B) {
			c, lpas := newGiBCache(b)
			if g == mapping.Page {
				fillPages(c, lpas)
				lpas = lpas[:c.Len()]
			} else {
				for base := int64(0); base < gibSectors; base += c.span[g] {
					c.Insert(g, base, mapping.PSN(base), false)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				psn, ok := c.Lookup(lpas[i%len(lpas)])
				if !ok {
					b.Fatal("miss")
				}
				psnSink += psn
			}
		})
	}
}

// psnSink keeps the benchmarked lookups' results live.
var psnSink mapping.PSN

// BenchmarkMissInsertEvict measures the page-mapped read path's cache work
// on a miss: a lookup of an LPA spread over 1 GiB misses a full 3072-entry
// cache, and the fetched entry is inserted over the LRU one.
func BenchmarkMissInsertEvict(b *testing.B) {
	c, lpas := newGiBCache(b)
	fillPages(c, lpas)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lpas[i&4095] ^ int64(i>>12)&(gibSectors-1)
		if _, ok := c.Lookup(l); !ok {
			c.Insert(mapping.Page, l, mapping.PSN(l), false)
		}
	}
}
