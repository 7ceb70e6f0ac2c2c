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
// Resident entries live in one arena of 32-byte nodes linked by int32
// indices: node 0 is the LRU ring's sentinel, and freed nodes chain through
// next for reuse. The arena holds no pointer, so the cache costs no
// per-entry allocation, no GC scan and no write barrier on an LRU move. The
// index is a power-of-two table of int32 node indices (0 = empty), probed
// linearly from a multiplicative hash of the key. It starts at 16 slots and
// doubles once it is one-eighth full: a miss walks its key's probe run to
// the end and a delete shifts the rest of its run back, so the load bound
// sets what both cost, and at one eighth the runs are short. The int32
// layout keeps the bytes flat at that bound: a 4-byte slot at one-eighth
// load plus a node is about 64 bytes per entry, what an 8-byte pointer at
// half load plus a 48-byte heap node costs. A delete leaves no tombstone,
// so a probe never walks past entries that are gone. The arena grows with
// the table, so the steady-state lookup/insert/evict cycle on the device's
// read path allocates nothing.
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

// node is one resident entry, threaded on the LRU ring by arena index.
// Freed nodes are chained through next on the freelist.
type node struct {
	key        key
	psn        mapping.PSN
	prev, next int32
	pinned     bool
}

// lookupOrder is the paper's probe sequence: widest granularity first.
var lookupOrder = [...]mapping.Gran{mapping.Zone, mapping.Chunk, mapping.Page}

// Cache is a byte-budgeted, hash-indexed LRU of L2P entries.
type Cache struct {
	capBytes   int64
	entryBytes int64

	slots     []int32 // open-addressed table of node indices; 0 = empty; len a power of two
	slotShift uint    // 64 - log2(len(slots)): the hash's top bits pick the home slot
	nodes     []node  // arena; nodes[0] is the sentinel: its next is the MRU, its prev the LRU
	n         int     // resident entries
	free      int32   // head of the freelist; 0 = empty

	victims []int32 // scratch for bounded scans

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
		slots:      make([]int32, 1<<minSlotsLog2),
		slotShift:  64 - minSlotsLog2,
	}
	c.nodes = make([]node, 1, c.arenaCap())
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

// loadLog2 bounds the table's load: it doubles before holding more than
// len(slots)>>loadLog2 entries, one eighth.
const loadLog2 = 3

// arenaCap is the arena capacity the slot table can hold within the budget:
// its load bound or MaxEntries, whichever is lower, plus the sentinel.
func (c *Cache) arenaCap() int {
	return int(min(int64(len(c.slots)>>loadLog2), c.MaxEntries())) + 1
}

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

// slot returns the index of k's slot and what it holds: k's node, or 0 in
// the empty slot that ends k's probe run.
func (c *Cache) slot(k key) (int, int32) {
	slots, nodes := c.slots, c.nodes
	mask := len(slots) - 1
	for i := c.home(k); ; i = (i + 1) & mask {
		if x := slots[i]; x == 0 || nodes[x].key == k {
			return i, x
		}
	}
}

// home is k's first probe slot: the top bits of a multiplicative
// (Fibonacci) hash, which spreads the arithmetic runs of aligned bases.
func (c *Cache) home(k key) int { return int(uint64(k) * 0x9E3779B97F4A7C15 >> c.slotShift) }

// find returns the arena index of k's resident node, or 0.
func (c *Cache) find(k key) int32 {
	_, x := c.slot(k)
	return x
}

// grow doubles the slot table, rehashes every resident node into it and
// widens the arena to what the new table holds within the budget.
func (c *Cache) grow() {
	old := c.slots
	c.slots = make([]int32, 2*len(old))
	c.slotShift--
	for _, x := range old {
		if x != 0 {
			i, _ := c.slot(c.nodes[x].key)
			c.slots[i] = x
		}
	}
	if want := c.arenaCap(); cap(c.nodes) < want {
		nodes := make([]node, len(c.nodes), want)
		copy(nodes, c.nodes)
		c.nodes = nodes
	}
}

// unslot empties k's slot, then shifts back each later node of the probe
// run whose home slot does not lie cyclically in (hole, its own slot], so
// every resident key stays reachable from its home without tombstones.
func (c *Cache) unslot(k key) {
	slots, nodes := c.slots, c.nodes
	mask := len(slots) - 1
	hole, _ := c.slot(k)
	for j := (hole + 1) & mask; slots[j] != 0; j = (j + 1) & mask {
		if (j-c.home(nodes[slots[j]].key))&mask >= (j-hole)&mask {
			slots[hole] = slots[j]
			hole = j
		}
	}
	slots[hole] = 0
}

// unlink detaches node x from the LRU ring.
func (c *Cache) unlink(x int32) {
	nodes := c.nodes
	prev, next := nodes[x].prev, nodes[x].next
	nodes[prev].next = next
	nodes[next].prev = prev
}

// pushFront makes node x the MRU entry.
func (c *Cache) pushFront(x int32) {
	nodes := c.nodes
	mru := nodes[0].next
	nodes[x].prev, nodes[x].next = 0, mru
	nodes[mru].prev = x
	nodes[0].next = x
}

// moveToFront makes node x the MRU entry: unlink and pushFront in one body,
// small enough to inline into Lookup's hit.
func (c *Cache) moveToFront(x int32) {
	nodes := c.nodes
	mru := nodes[0].next
	if mru == x {
		return
	}
	nd := &nodes[x]
	nodes[nd.prev].next = nd.next
	nodes[nd.next].prev = nd.prev
	nd.prev, nd.next = 0, mru
	nodes[mru].prev = x
	nodes[0].next = x
}

// newNode takes a node off the freelist or appends one to the arena, which
// grow has sized for every entry the budget admits: only a pinned insert
// past the budget appends beyond its capacity.
func (c *Cache) newNode() int32 {
	if x := c.free; x != 0 {
		c.free = c.nodes[x].next
		return x
	}
	c.nodes = append(c.nodes, node{})
	return int32(len(c.nodes) - 1)
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
		if x := c.find(c.keyFor(g, lpa)); x != 0 {
			nd := &c.nodes[x]
			psn := nd.psn + mapping.PSN(lpa-nd.key.base())
			c.moveToFront(x)
			c.stats.Hits++
			return psn, true
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
	if x := c.find(k); x != 0 {
		nd := &c.nodes[x]
		nd.psn = basePSN
		nd.pinned = nd.pinned || pinned
		c.moveToFront(x)
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
	if (c.n+1)<<loadLog2 > len(c.slots) {
		c.grow()
	}
	x := c.newNode()
	nd := &c.nodes[x]
	nd.key, nd.psn, nd.pinned = k, basePSN, pinned
	c.pushFront(x)
	i, _ := c.slot(k)
	c.slots[i] = x
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
		victims, nodes := c.victims[:0], c.nodes
		for x := nodes[0].next; x != 0; x = nodes[x].next {
			if k := nodes[x].key; k.gran() < g && k.base() >= base && k.base() < base+span {
				victims = append(victims, x)
			}
		}
		for _, x := range victims {
			c.remove(x)
			c.stats.Covered++
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
			if x := c.find(makeKey(ng, b)); x != 0 {
				c.remove(x)
				c.stats.Covered++
			}
		}
	}
}

// evictLRU removes the least recently used unpinned entry. It reports
// whether anything was evicted.
func (c *Cache) evictLRU() bool {
	nodes := c.nodes
	for x := nodes[0].prev; x != 0; x = nodes[x].prev {
		if !nodes[x].pinned {
			c.remove(x)
			c.stats.Evictions++
			return true
		}
	}
	return false
}

// remove detaches node x from the table and ring and recycles it.
func (c *Cache) remove(x int32) {
	k := c.nodes[x].key
	c.unslot(k)
	c.unlink(x)
	c.n--
	c.granN[k.gran()]--
	c.used -= c.entryBytes
	c.nodes[x] = node{next: c.free}
	c.free = x
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
		victims, nodes := c.victims[:0], c.nodes
		for x := nodes[0].next; x != 0; x = nodes[x].next {
			k := nodes[x].key
			if k.base() < lpa+n && k.base()+c.span[k.gran()] > lpa {
				victims = append(victims, x)
			}
		}
		for _, x := range victims {
			c.remove(x)
		}
		c.victims = victims[:0]
		return
	}
	for _, g := range lookupOrder {
		span := c.span[g]
		for b := lpa - lpa%span; b < lpa+n; b += span {
			if x := c.find(makeKey(g, b)); x != 0 {
				c.remove(x)
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
	for x := c.nodes[0].next; x != 0; x = c.nodes[x].next {
		nd := &c.nodes[x]
		if !fn(Entry{Gran: nd.key.gran(), Base: nd.key.base(), PSN: nd.psn, Pinned: nd.pinned}) {
			return
		}
	}
}

// CheckInvariants verifies the byte accounting and table/ring/arena
// agreement.
func (c *Cache) CheckInvariants() error {
	ringLen := 0
	for x := c.nodes[0].next; x != 0; x = c.nodes[x].next {
		ringLen++
	}
	if ringLen != c.n {
		return fmt.Errorf("l2pcache: ring holds %d entries, counted %d", ringLen, c.n)
	}
	freeLen := 0
	for x := c.free; x != 0; x = c.nodes[x].next {
		freeLen++
	}
	if ringLen+freeLen != len(c.nodes)-1 {
		return fmt.Errorf("l2pcache: ring %d + freelist %d nodes, arena holds %d", ringLen, freeLen, len(c.nodes)-1)
	}
	if int64(c.n)*c.entryBytes != c.used {
		return fmt.Errorf("l2pcache: used %d != %d entries * %d", c.used, c.n, c.entryBytes)
	}
	if c.n<<loadLog2 > len(c.slots) {
		return fmt.Errorf("l2pcache: %d entries in %d slots, over one-eighth load", c.n, len(c.slots))
	}
	inTable := 0
	for _, x := range c.slots {
		if x != 0 {
			inTable++
		}
	}
	if inTable != c.n {
		return fmt.Errorf("l2pcache: table holds %d entries, ring %d", inTable, c.n)
	}
	var granN [3]int
	for x := c.nodes[0].next; x != 0; x = c.nodes[x].next {
		k := c.nodes[x].key
		granN[k.gran()]++
		if c.find(k) != x {
			return fmt.Errorf("l2pcache: ring entry %d not reachable in the table", k)
		}
	}
	if granN != c.granN {
		return fmt.Errorf("l2pcache: per-granularity counts %v, counted %v", c.granN, granN)
	}
	if c.used > c.capBytes {
		// Over budget is legal only if everything resident is pinned.
		for x := c.nodes[0].next; x != 0; x = c.nodes[x].next {
			if !c.nodes[x].pinned {
				return fmt.Errorf("l2pcache: over budget (%d/%d) with unpinned entries", c.used, c.capBytes)
			}
		}
	}
	return nil
}
