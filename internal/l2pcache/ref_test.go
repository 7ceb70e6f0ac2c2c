package l2pcache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/conzone/conzone/internal/mapping"
)

// refCache is the cache as it was before the slot table: a Go map keyed by
// the packed (granularity, base) word as the source of truth, plus a direct
// per-granularity index kept beside it. TestCacheMatchesMapModel replays
// seeded streams against it and Cache and requires identical behaviour.

// refNode is one resident entry, threaded on the intrusive LRU ring. Freed
// nodes are chained through next on the freelist.
type refNode struct {
	key    key
	psn    mapping.PSN
	pinned bool

	prev, next *refNode
}

type refCache struct {
	capBytes   int64
	entryBytes int64
	table      *mapping.Table // for granularity spans

	m    map[key]*refNode
	root refNode // sentinel: root.next = MRU, root.prev = LRU
	n    int     // resident entries
	free *refNode

	victims []*refNode // scratch for bounded scans

	// Probe acceleration, derived once at construction: per-granularity
	// spans (with a power-of-two mask fast path for keyFor's base
	// alignment) and resident-entry counts per granularity, so Lookup can
	// skip the hash probe for a granularity with no resident entries — the
	// probe still counts in the statistics, it just costs a counter bump
	// instead of a map access. Indexed by mapping.Gran.
	span  [3]int64
	mask  [3]int64
	pow2  [3]bool
	shift [3]uint
	granN [3]int

	// ix direct-indexes resident nodes by base/span for granularities
	// whose base count (TotalSectors/span) is small enough, turning
	// Lookup's hash probe into an array load. The map remains the source
	// of truth — ix is maintained alongside it on insert and remove and
	// never holds a node the map lacks. ixLen is the index size, 0 for
	// unindexed granularities; the index itself is allocated on the
	// granularity's first insert, so a cache that never holds a page entry
	// never pays for the page index.
	ix    [3][]*refNode
	ixLen [3]int64

	used  int64 // bytes of unpinned+pinned entries
	stats Stats
}

// newRef builds a reference cache of capBytes capacity with entryBytes per
// entry over the table whose granularities it caches, which maps total
// logical sectors.
func newRef(capBytes, entryBytes, total int64, table *mapping.Table) (*refCache, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("l2pcache: capacity must be positive, got %d", capBytes)
	}
	if entryBytes <= 0 {
		return nil, fmt.Errorf("l2pcache: entry size must be positive, got %d", entryBytes)
	}
	if capBytes < entryBytes {
		return nil, fmt.Errorf("l2pcache: capacity %d below one entry of %d", capBytes, entryBytes)
	}
	if table == nil {
		return nil, fmt.Errorf("l2pcache: nil mapping table")
	}
	c := &refCache{
		capBytes:   capBytes,
		entryBytes: entryBytes,
		table:      table,
		m:          make(map[key]*refNode),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	for _, g := range lookupOrder {
		s := table.SectorsOf(g)
		c.span[g] = s
		if s > 0 && s&(s-1) == 0 {
			c.pow2[g] = true
			c.mask[g] = s - 1
			c.shift[g] = uint(bits.TrailingZeros64(uint64(s)))
		}
		if s > 0 {
			if n := total / s; n > 0 && n <= refMaxDirectIndex {
				c.ixLen[g] = n
			}
		}
	}
	return c, nil
}

// refMaxDirectIndex caps the per-granularity direct-index size: a
// granularity with more bases than this keeps the plain hash probe, bounding the
// acceleration arrays at 512 KiB of pointers each.
const refMaxDirectIndex = 1 << 16

func (c *refCache) keyFor(g mapping.Gran, lpa int64) key {
	if c.pow2[g] {
		return makeKey(g, lpa&^c.mask[g])
	}
	return makeKey(g, lpa-lpa%c.span[g])
}

// unlink detaches nd from the LRU ring.
func (nd *refNode) unlink() {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	nd.prev, nd.next = nil, nil
}

// pushFront makes nd the MRU entry.
func (c *refCache) pushFront(nd *refNode) {
	nd.prev = &c.root
	nd.next = c.root.next
	nd.prev.next = nd
	nd.next.prev = nd
}

func (c *refCache) moveToFront(nd *refNode) {
	if c.root.next == nd {
		return
	}
	nd.unlink()
	c.pushFront(nd)
}

// newNode takes a node off the freelist or allocates one.
func (c *refCache) newNode() *refNode {
	if nd := c.free; nd != nil {
		c.free = nd.next
		nd.next = nil
		return nd
	}
	return new(refNode)
}

// Lookup translates lpa through the cache, probing zone, chunk and page
// entries in turn. On a hit the entry becomes MRU and the sector's PSN is
// returned (entry base PSN plus the offset inside the aggregated run).
func (c *refCache) Lookup(lpa int64) (mapping.PSN, bool) {
	for _, g := range lookupOrder {
		c.stats.Probes++
		if c.granN[g] == 0 {
			continue // no resident entry of this granularity: guaranteed miss
		}
		var nd *refNode
		if ix := c.ix[g]; ix != nil {
			var i int64
			if c.pow2[g] {
				i = lpa >> c.shift[g]
			} else {
				i = lpa / c.span[g]
			}
			if uint64(i) < uint64(len(ix)) {
				nd = ix[i]
			}
		} else if n, ok := c.m[c.keyFor(g, lpa)]; ok {
			nd = n
		}
		if nd != nil {
			c.moveToFront(nd)
			c.stats.Hits++
			return nd.psn + mapping.PSN(lpa-nd.key.base()), true
		}
	}
	c.stats.Misses++
	return mapping.InvalidPSN, false
}

// Insert caches the entry (g, base LPA of lpa, psn of that base). Wider
// entries evict the narrower entries they cover (the paper's PINNED design:
// "when the L2P mapping entry with larger mapping range is generated, the
// covered L2P mapping entries are evicted"). If the budget is exhausted and
// every resident entry is pinned, an unpinned insert is dropped; pinned
// inserts always succeed. Returns whether the entry resides in the cache.
func (c *refCache) Insert(g mapping.Gran, lpa int64, basePSN mapping.PSN, pinned bool) bool {
	k := c.keyFor(g, lpa)
	if nd, ok := c.m[k]; ok {
		nd.psn = basePSN
		nd.pinned = nd.pinned || pinned
		c.moveToFront(nd)
		return true
	}
	if g != mapping.Page {
		c.dropCovered(g, k.base())
	}
	for c.used+c.entryBytes > c.capBytes {
		if !c.evictLRU() {
			if !pinned {
				return false
			}
			break // pinned entries may transiently exceed the budget
		}
	}
	nd := c.newNode()
	nd.key, nd.psn, nd.pinned = k, basePSN, pinned
	c.pushFront(nd)
	c.m[k] = nd
	if n := c.ixLen[g]; n > 0 {
		if c.ix[g] == nil {
			c.ix[g] = make([]*refNode, n)
		}
		if i := k.base() / c.span[g]; i < n {
			c.ix[g][i] = nd
		}
	}
	c.n++
	c.granN[k.gran()]++
	c.used += c.entryBytes
	c.stats.Inserts++
	return true
}

// dropCovered removes narrower entries whose span lies inside the new
// wider entry starting at base. The work is bounded by whichever side is
// smaller: probing every narrower base in the span (a zone-level insert
// would probe thousands of page bases) or walking the resident entries
// (at most MaxEntries).
func (c *refCache) dropCovered(g mapping.Gran, base int64) {
	span := c.table.SectorsOf(g)
	probes := span // page-granularity bases in the span
	if g == mapping.Zone {
		probes += span / c.table.SectorsOf(mapping.Chunk)
	}
	if int64(c.n) < probes {
		victims := c.victims[:0]
		for nd := c.root.next; nd != &c.root; nd = nd.next {
			if nd.key.gran() < g && nd.key.base() >= base && nd.key.base() < base+span {
				victims = append(victims, nd)
			}
		}
		for i, nd := range victims {
			c.remove(nd)
			c.stats.Covered++
			victims[i] = nil
		}
		c.victims = victims[:0]
		return
	}
	narrower := [2]mapping.Gran{mapping.Page, mapping.Page}
	ngrans := narrower[:1]
	if g == mapping.Zone {
		narrower[1] = mapping.Chunk
		ngrans = narrower[:2]
	}
	for _, ng := range ngrans {
		nspan := c.table.SectorsOf(ng)
		for b := base; b < base+span; b += nspan {
			if nd, ok := c.m[makeKey(ng, b)]; ok {
				c.remove(nd)
				c.stats.Covered++
			}
		}
	}
}

// evictLRU removes the least recently used unpinned entry. It reports
// whether anything was evicted.
func (c *refCache) evictLRU() bool {
	for nd := c.root.prev; nd != &c.root; nd = nd.prev {
		if !nd.pinned {
			c.remove(nd)
			c.stats.Evictions++
			return true
		}
	}
	return false
}

// remove detaches the node from the map, index and ring and recycles it.
func (c *refCache) remove(nd *refNode) {
	delete(c.m, nd.key)
	if g := nd.key.gran(); c.ix[g] != nil {
		if i := nd.key.base() / c.span[g]; uint64(i) < uint64(len(c.ix[g])) {
			c.ix[g][i] = nil
		}
	}
	nd.unlink()
	c.n--
	c.granN[nd.key.gran()]--
	c.used -= c.entryBytes
	nd.key = 0
	nd.psn, nd.pinned = 0, false
	nd.next = c.free
	c.free = nd
}

// InvalidateRange removes every cached entry overlapping [lpa, lpa+n),
// regardless of pinning. Zone resets use it. Like dropCovered, the scan is
// bounded by the resident entry count when the span would probe more bases
// than the cache can hold.
func (c *refCache) InvalidateRange(lpa, n int64) {
	if n <= 0 {
		return
	}
	probes := n + n/c.table.SectorsOf(mapping.Chunk) + n/c.table.SectorsOf(mapping.Zone) + 3
	if int64(c.n) < probes {
		victims := c.victims[:0]
		for nd := c.root.next; nd != &c.root; nd = nd.next {
			span := c.table.SectorsOf(nd.key.gran())
			if nd.key.base() < lpa+n && nd.key.base()+span > lpa {
				victims = append(victims, nd)
			}
		}
		for i, nd := range victims {
			c.remove(nd)
			victims[i] = nil
		}
		c.victims = victims[:0]
		return
	}
	for _, g := range lookupOrder {
		span := c.table.SectorsOf(g)
		first := lpa - lpa%span
		for b := first; b < lpa+n; b += span {
			if nd, ok := c.m[makeKey(g, b)]; ok {
				c.remove(nd)
			}
		}
	}
}

// ForEach visits every cached entry in MRU-to-LRU order without touching
// the LRU order or statistics. Iteration stops when fn returns false.
func (c *refCache) ForEach(fn func(Entry) bool) {
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		if !fn(Entry{Gran: nd.key.gran(), Base: nd.key.base(), PSN: nd.psn, Pinned: nd.pinned}) {
			return
		}
	}
}

// CheckInvariants verifies the byte accounting and map/list agreement.
func (c *refCache) CheckInvariants() error {
	ringLen := 0
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		ringLen++
	}
	if ringLen != c.n {
		return fmt.Errorf("l2pcache: ring holds %d entries, counted %d", ringLen, c.n)
	}
	if int64(c.n)*c.entryBytes != c.used {
		return fmt.Errorf("l2pcache: used %d != %d entries * %d", c.used, c.n, c.entryBytes)
	}
	if len(c.m) != c.n {
		return fmt.Errorf("l2pcache: map %d != list %d", len(c.m), c.n)
	}
	var granN [3]int
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		granN[nd.key.gran()]++
	}
	if granN != c.granN {
		return fmt.Errorf("l2pcache: per-granularity counts %v, counted %v", c.granN, granN)
	}
	for g := range c.ix {
		live := 0
		for i, nd := range c.ix[g] {
			if nd == nil {
				continue
			}
			live++
			if want := c.m[nd.key]; want != nd {
				return fmt.Errorf("l2pcache: index gran %d slot %d disagrees with map", g, i)
			}
			if nd.key.gran() != mapping.Gran(g) || nd.key.base()/c.span[g] != int64(i) {
				return fmt.Errorf("l2pcache: index gran %d slot %d holds misfiled key %d", g, i, nd.key)
			}
		}
		if c.ix[g] != nil && live != c.granN[g] {
			return fmt.Errorf("l2pcache: index gran %d holds %d entries, counted %d resident", g, live, c.granN[g])
		}
	}
	if c.used > c.capBytes {
		// Over budget is legal only if everything resident is pinned.
		for nd := c.root.next; nd != &c.root; nd = nd.next {
			if !nd.pinned {
				return fmt.Errorf("l2pcache: over budget (%d/%d) with unpinned entries", c.used, c.capBytes)
			}
		}
	}
	return nil
}

func (c *refCache) Stats() Stats { return c.stats }

// modelGeometry is one mapping-table shape the differential test replays
// on: spans that are powers of two or not, and a page space the reference's
// direct index covers or leaves to its map.
type modelGeometry struct {
	name               string
	total, chunk, zone int64
	window             int64 // LPAs of most traffic, so a stream both hits and evicts
}

// TestCacheMatchesMapModel replays seeded streams of inserts at every
// granularity (pinned and unpinned), lookups and range invalidations against
// Cache and the map-plus-index refCache. After every operation the return
// values, Stats, the ForEach sequence (contents and recency order, which fix
// every later eviction) and CheckInvariants must agree. Each stream must
// reach both branches of dropCovered and of InvalidateRange, and the small
// caches must also hold pinned entries over budget and delete from probe
// runs that wrap around the end of the slot table.
func TestCacheMatchesMapModel(t *testing.T) {
	small := modelGeometry{"pow2", 64, 4, 16, 64}
	odd := modelGeometry{"odd", 96, 3, 12, 96}
	mid := modelGeometry{"mid", 1 << 14, 16, 64, 8192}
	wide := modelGeometry{"wide", 96 * 4096, 1024, 4096, 16384} // the page index falls back to the map
	cases := []struct {
		entries int64
		geo     modelGeometry
		ops     int
	}{
		{1, small, 20000},
		{3, small, 20000},
		{3, odd, 20000},
		{3, wide, 20000},
		{3072, mid, 8000},
		{3072, wide, 12000},
	}
	// Which branch each bounded scan takes, decided as the code decides
	// it, and the states the small tables must reach, over all streams.
	var walkCovered, probeCovered, walkRange, probeRange, overBudget, wrappedDeletes int
	for _, tc := range cases {
		t.Run(fmt.Sprintf("cap%d/%s", tc.entries, tc.geo.name), func(t *testing.T) {
			g := tc.geo
			tbl, err := mapping.NewTable(mapping.Config{TotalSectors: g.total, ChunkSectors: g.chunk, ZoneSectors: g.zone, AggLimit: mapping.PSN(g.total)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(tc.entries*4, 4, tbl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newRef(tc.entries*4, 4, g.total, tbl)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(tc.entries), uint64(g.total)))
			for op := 0; op < tc.ops; op++ {
				lpa := rng.Int64N(g.total)
				if rng.IntN(4) > 0 {
					lpa %= g.window
				}
				var desc string
				switch r := rng.IntN(20); {
				case r < 8:
					desc = fmt.Sprintf("Lookup(%d)", lpa)
					gp, gok := got.Lookup(lpa)
					wp, wok := want.Lookup(lpa)
					if gp != wp || gok != wok {
						t.Fatalf("op %d: %s = %d, %v; the map model says %d, %v", op, desc, gp, gok, wp, wok)
					}
				case r < 18:
					gran := [...]mapping.Gran{mapping.Page, mapping.Page, mapping.Page, mapping.Chunk, mapping.Zone}[rng.IntN(5)]
					pinned := rng.IntN(25) == 0
					desc = fmt.Sprintf("Insert(%v, %d, pinned=%v)", gran, lpa, pinned)
					if gran != mapping.Page && got.find(got.keyFor(gran, lpa)) == 0 {
						probes := g.zone
						if gran == mapping.Chunk {
							probes = g.chunk
						} else {
							probes += g.zone / g.chunk
						}
						if int64(got.n) < probes {
							walkCovered++
						} else {
							probeCovered++
						}
					}
					if tc.entries <= 3 && got.wraps() {
						wrappedDeletes++ // an insert into a full or covering cache deletes
					}
					psn := mapping.PSN(rng.Int64N(g.total))
					if gi, wi := got.Insert(gran, lpa, psn, pinned), want.Insert(gran, lpa, psn, pinned); gi != wi {
						t.Fatalf("op %d: %s = %v; the map model says %v", op, desc, gi, wi)
					}
				default:
					n := rng.Int64N(8)
					if rng.IntN(4) == 0 {
						n = rng.Int64N(2 * g.zone)
					}
					desc = fmt.Sprintf("InvalidateRange(%d, %d)", lpa, n)
					if n > 0 {
						if int64(got.n) < n+n/g.chunk+n/g.zone+3 {
							walkRange++
						} else {
							probeRange++
						}
					}
					if tc.entries <= 3 && got.wraps() {
						wrappedDeletes++
					}
					got.InvalidateRange(lpa, n)
					want.InvalidateRange(lpa, n)
				}
				if tc.entries <= 3 && got.used > got.capBytes {
					overBudget++
				}
				if gs, ws := got.Stats(), want.Stats(); gs != ws {
					t.Fatalf("op %d: after %s Stats = %+v; the map model has %+v", op, desc, gs, ws)
				}
				ge, we := entries(got.ForEach), entries(want.ForEach)
				if !slices.Equal(ge, we) {
					t.Fatalf("op %d: after %s the cache holds %v; the map model holds %v", op, desc, ge, we)
				}
				if ge, we := got.CheckInvariants(), want.CheckInvariants(); ge != nil || we != nil {
					t.Fatalf("op %d: after %s CheckInvariants = %v; the map model's = %v", op, desc, ge, we)
				}
			}
		})
	}
	t.Logf("dropCovered walk/probe %d/%d, InvalidateRange walk/probe %d/%d; small caches: ops over budget %d, deletes from wrapped runs %d",
		walkCovered, probeCovered, walkRange, probeRange, overBudget, wrappedDeletes)
	if walkCovered == 0 || probeCovered == 0 || walkRange == 0 || probeRange == 0 {
		t.Errorf("streams missed a branch: dropCovered walk/probe %d/%d, InvalidateRange walk/probe %d/%d",
			walkCovered, probeCovered, walkRange, probeRange)
	}
	if overBudget == 0 || wrappedDeletes == 0 {
		t.Errorf("small caches never held pinned entries over budget (%d ops) or deleted from a wrapped probe run (%d)", overBudget, wrappedDeletes)
	}
}

// entries collects a ForEach sequence.
func entries(forEach func(func(Entry) bool)) []Entry {
	var es []Entry
	forEach(func(e Entry) bool {
		es = append(es, e)
		return true
	})
	return es
}

// wraps reports whether some resident node sits before its home slot, so
// its probe run wraps around the end of the table.
func (c *Cache) wraps() bool {
	for i, x := range c.slots {
		if x != 0 && i < c.home(c.nodes[x].key) {
			return true
		}
	}
	return false
}
