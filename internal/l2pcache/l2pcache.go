// Package l2pcache implements the limited volatile L2P cache of a
// consumer-grade device (paper §III-C). Entries carry three domains —
// logical address, mapping granularity, physical address — and are stored
// in hash buckets for fast probing. The cache is byte-budgeted: a 12 KiB
// cache with 4-byte entries holds 3072 entries regardless of granularity,
// which is precisely why aggregation pays off.
//
// Lookup probes LZA (zone), LCA (chunk) and LPA (page) keys in turn, as the
// paper's read path does. Eviction is LRU; entries inserted pinned (the
// PINNED search strategy) are never evicted by capacity pressure, and when
// a wider entry is inserted the narrower entries it covers are dropped.
//
// The LRU list is intrusive (prev/next fields inside the entry nodes) and
// removed nodes go on a freelist for reuse, so the steady-state
// lookup/insert/evict cycle on the device's read path allocates nothing.
package l2pcache

import (
	"fmt"
	"math/bits"

	"github.com/conzone/conzone/internal/mapping"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Probes    int64 // individual bucket probes (≥ lookups)
	Inserts   int64
	Evictions int64
	Covered   int64 // entries evicted because a wider entry covered them
}

// Delta returns the counter changes from prev to s (interval reporting).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Probes:    s.Probes - prev.Probes,
		Inserts:   s.Inserts - prev.Inserts,
		Evictions: s.Evictions - prev.Evictions,
		Covered:   s.Covered - prev.Covered,
	}
}

// key packs (granularity, aligned base LPA) into one word so the hash
// buckets use the runtime's fast integer-keyed map path. Base LPAs are
// sector indices well below 2^56, so the granularity tag in the top bits
// never collides with them.
type key int64

func makeKey(g mapping.Gran, base int64) key {
	return key(base) | key(g)<<56
}

func (k key) gran() mapping.Gran { return mapping.Gran(k >> 56) }
func (k key) base() int64        { return int64(k) & (1<<56 - 1) }

// node is one resident entry, threaded on the intrusive LRU ring. Freed
// nodes are chained through next on the freelist.
type node struct {
	key    key
	psn    mapping.PSN
	pinned bool

	prev, next *node
}

// lookupOrder is the paper's probe sequence: widest granularity first.
var lookupOrder = [...]mapping.Gran{mapping.Zone, mapping.Chunk, mapping.Page}

// Cache is a byte-budgeted, hash-bucketed LRU of L2P entries.
type Cache struct {
	capBytes   int64
	entryBytes int64
	table      *mapping.Table // for granularity spans

	m    map[key]*node
	root node // sentinel: root.next = MRU, root.prev = LRU
	n    int  // resident entries
	free *node

	victims []*node // scratch for bounded scans

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
	ix    [3][]*node
	ixLen [3]int64

	used  int64 // bytes of unpinned+pinned entries
	stats Stats
}

// New builds a cache of capBytes capacity with entryBytes per entry,
// attached to the table whose granularities it caches.
func New(capBytes, entryBytes int64, table *mapping.Table) (*Cache, error) {
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
	c := &Cache{
		capBytes:   capBytes,
		entryBytes: entryBytes,
		table:      table,
		m:          make(map[key]*node),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	total := table.TotalSectors()
	for _, g := range lookupOrder {
		s := table.SectorsOf(g)
		c.span[g] = s
		if s > 0 && s&(s-1) == 0 {
			c.pow2[g] = true
			c.mask[g] = s - 1
			c.shift[g] = uint(bits.TrailingZeros64(uint64(s)))
		}
		if s > 0 {
			if n := total / s; n > 0 && n <= maxDirectIndex {
				c.ixLen[g] = n
			}
		}
	}
	return c, nil
}

// maxDirectIndex caps the per-granularity direct-index size: a granularity
// with more bases than this keeps the plain hash probe, bounding the
// acceleration arrays at 512 KiB of pointers each.
const maxDirectIndex = 1 << 16

// MaxEntries returns how many entries fit in the budget.
func (c *Cache) MaxEntries() int64 { return c.capBytes / c.entryBytes }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) keyFor(g mapping.Gran, lpa int64) key {
	if c.pow2[g] {
		return makeKey(g, lpa&^c.mask[g])
	}
	return makeKey(g, lpa-lpa%c.span[g])
}

// unlink detaches nd from the LRU ring.
func (nd *node) unlink() {
	nd.prev.next = nd.next
	nd.next.prev = nd.prev
	nd.prev, nd.next = nil, nil
}

// pushFront makes nd the MRU entry.
func (c *Cache) pushFront(nd *node) {
	nd.prev = &c.root
	nd.next = c.root.next
	nd.prev.next = nd
	nd.next.prev = nd
}

func (c *Cache) moveToFront(nd *node) {
	if c.root.next == nd {
		return
	}
	nd.unlink()
	c.pushFront(nd)
}

// newNode takes a node off the freelist or allocates one.
func (c *Cache) newNode() *node {
	if nd := c.free; nd != nil {
		c.free = nd.next
		nd.next = nil
		return nd
	}
	return new(node)
}

// Lookup translates lpa through the cache, probing zone, chunk and page
// entries in turn. On a hit the entry becomes MRU and the sector's PSN is
// returned (entry base PSN plus the offset inside the aggregated run).
func (c *Cache) Lookup(lpa int64) (mapping.PSN, bool) {
	for _, g := range lookupOrder {
		c.stats.Probes++
		if c.granN[g] == 0 {
			continue // no resident entry of this granularity: guaranteed miss
		}
		var nd *node
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
func (c *Cache) Insert(g mapping.Gran, lpa int64, basePSN mapping.PSN, pinned bool) bool {
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
			c.ix[g] = make([]*node, n)
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
func (c *Cache) dropCovered(g mapping.Gran, base int64) {
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
func (c *Cache) evictLRU() bool {
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
func (c *Cache) remove(nd *node) {
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
func (c *Cache) InvalidateRange(lpa, n int64) {
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

// Entry is a read-only view of one cached translation, for diagnostics and
// invariant auditing.
type Entry struct {
	Gran   mapping.Gran
	Base   int64 // aligned base LPA
	PSN    mapping.PSN
	Pinned bool
}

// ForEach visits every cached entry in MRU-to-LRU order without touching
// the LRU order or statistics. Iteration stops when fn returns false.
func (c *Cache) ForEach(fn func(Entry) bool) {
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		if !fn(Entry{Gran: nd.key.gran(), Base: nd.key.base(), PSN: nd.psn, Pinned: nd.pinned}) {
			return
		}
	}
}

// MissRatio returns misses / lookups observed so far, or 0 when idle.
func (c *Cache) MissRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Misses) / float64(total)
}

// ResetStats zeroes the counters but keeps contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CheckInvariants verifies the byte accounting and map/list agreement.
func (c *Cache) CheckInvariants() error {
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
