// Package l2pcache implements the limited volatile L2P cache of a
// consumer-grade device (paper §III-C). Entries carry three domains —
// logical address, mapping granularity, physical address — and are indexed
// by one open-addressed hash table for fast probing. The cache is
// byte-budgeted: a 12 KiB cache with 4-byte entries holds 3072 entries
// regardless of granularity, which is precisely why aggregation pays off.
//
// Lookup probes LZA (zone), LCA (chunk) and LPA (page) keys in turn, as the
// paper's read path does. Eviction is LRU; entries inserted pinned (the
// PINNED search strategy) are never evicted by capacity pressure, and when
// a wider entry is inserted the narrower entries it covers are dropped.
//
// The table is a power-of-two array of node pointers, probed linearly from
// a multiplicative hash of the key. It starts at 16 slots and doubles when
// half full, so a device that barely uses its cache pays for 16 pointers;
// a delete shifts the rest of its probe run back instead of leaving a
// tombstone, so a probe never walks past entries that are gone. The LRU
// list is intrusive (prev/next fields inside the entry nodes) and removed
// nodes go on a freelist for reuse, so the steady-state lookup/insert/evict
// cycle on the device's read path allocates nothing.
package l2pcache

import (
	"fmt"

	"github.com/conzone/conzone/internal/mapping"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Probes    int64 // granularities probed (≥ lookups)
	Inserts   int64
	Evictions int64
	Covered   int64 // entries evicted because a wider entry covered them
}

// key packs (granularity, aligned base LPA) into one word, so a slot probe
// compares one integer. Base LPAs are sector indices well below 2^56, so
// the granularity tag in the top bits never collides with them.
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

// Cache is a byte-budgeted, hash-indexed LRU of L2P entries.
type Cache struct {
	capBytes   int64
	entryBytes int64

	slots     []*node // open-addressed table; nil = empty; len a power of two
	slotShift uint    // 64 - log2(len(slots)): the hash's top bits pick the home slot
	root      node    // sentinel: root.next = MRU, root.prev = LRU
	n         int     // resident entries
	free      *node

	victims []*node // scratch for bounded scans

	// Probe acceleration, derived once at construction: per-granularity
	// spans (with a power-of-two mask fast path for keyFor's base
	// alignment) and resident-entry counts per granularity, so Lookup can
	// skip the hash probe for a granularity with no resident entries — the
	// probe still counts in the statistics, it just costs a counter bump
	// instead of a table probe. Indexed by mapping.Gran.
	span  [3]int64
	mask  [3]int64
	pow2  [3]bool
	granN [3]int

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
		slots:      make([]*node, 1<<minSlotsLog2),
		slotShift:  64 - minSlotsLog2,
	}
	c.root.prev, c.root.next = &c.root, &c.root
	for _, g := range lookupOrder {
		s := table.SectorsOf(g)
		c.span[g] = s
		if s > 0 && s&(s-1) == 0 {
			c.pow2[g] = true
			c.mask[g] = s - 1
		}
	}
	return c, nil
}

// minSlotsLog2 sizes the slot table a new cache starts with: 16 slots.
const minSlotsLog2 = 4

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

// slot returns the index of k's slot: the one holding k, or the empty slot
// that ends k's probe run.
func (c *Cache) slot(k key) int {
	mask := len(c.slots) - 1
	i := c.home(k)
	for {
		if nd := c.slots[i]; nd == nil || nd.key == k {
			return i
		}
		i = (i + 1) & mask
	}
}

// home is k's first probe slot: the top bits of a multiplicative
// (Fibonacci) hash, which spreads the arithmetic runs of aligned bases.
func (c *Cache) home(k key) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> c.slotShift) }

// find returns the resident node of k, or nil.
func (c *Cache) find(k key) *node { return c.slots[c.slot(k)] }

// grow doubles the slot table and rehashes every resident node into it.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]*node, 2*len(old))
	c.slotShift--
	for _, nd := range old {
		if nd != nil {
			c.slots[c.slot(nd.key)] = nd
		}
	}
}

// unslot empties nd's slot, then shifts back each later node of the probe
// run whose home slot does not lie cyclically in (hole, its own slot], so
// every resident key stays reachable from its home without tombstones.
func (c *Cache) unslot(nd *node) {
	mask := len(c.slots) - 1
	hole := c.slot(nd.key)
	for j := (hole + 1) & mask; c.slots[j] != nil; j = (j + 1) & mask {
		if (j-c.home(c.slots[j].key))&mask >= (j-hole)&mask {
			c.slots[hole] = c.slots[j]
			hole = j
		}
	}
	c.slots[hole] = nil
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
		if nd := c.find(c.keyFor(g, lpa)); nd != nil {
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
	if nd := c.find(k); nd != nil {
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
	if 2*(c.n+1) > len(c.slots) {
		c.grow()
	}
	nd := c.newNode()
	nd.key, nd.psn, nd.pinned = k, basePSN, pinned
	c.pushFront(nd)
	c.slots[c.slot(k)] = nd
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
	span := c.span[g]
	probes := span // page-granularity bases in the span
	if g == mapping.Zone {
		probes += span / c.span[mapping.Chunk]
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
		for b := base; b < base+span; b += c.span[ng] {
			if nd := c.find(makeKey(ng, b)); nd != nil {
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

// remove detaches the node from the table and ring and recycles it.
func (c *Cache) remove(nd *node) {
	c.unslot(nd)
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
	probes := n + n/c.span[mapping.Chunk] + n/c.span[mapping.Zone] + 3
	if int64(c.n) < probes {
		victims := c.victims[:0]
		for nd := c.root.next; nd != &c.root; nd = nd.next {
			span := c.span[nd.key.gran()]
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
		span := c.span[g]
		for b := lpa - lpa%span; b < lpa+n; b += span {
			if nd := c.find(makeKey(g, b)); nd != nil {
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

// CheckInvariants verifies the byte accounting and table/ring agreement.
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
	if 2*c.n > len(c.slots) {
		return fmt.Errorf("l2pcache: %d entries in %d slots, over half load", c.n, len(c.slots))
	}
	inTable := 0
	for _, nd := range c.slots {
		if nd != nil {
			inTable++
		}
	}
	if inTable != c.n {
		return fmt.Errorf("l2pcache: table holds %d entries, ring %d", inTable, c.n)
	}
	var granN [3]int
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		granN[nd.key.gran()]++
		if c.find(nd.key) != nd {
			return fmt.Errorf("l2pcache: ring entry %d not reachable in the table", nd.key)
		}
	}
	if granN != c.granN {
		return fmt.Errorf("l2pcache: per-granularity counts %v, counted %v", c.granN, granN)
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
