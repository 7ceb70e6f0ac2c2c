package legacy

// pageCache is the legacy device's demand-paged L2P cache: a plain LRU set
// of page-granularity entries. The cache stores presence only — the page
// table itself is authoritative — because what the timing model needs is
// whether a translation would have required a flash fetch.
//
// The LRU list is linked by index through one node slice, and residency is
// a per-LPA slot index chunked like the page table: a miss prefetches a
// thousand entries, so an insert must cost neither a hash nor, once its
// chunk exists, an allocation.
type pageCache struct {
	slot  chunked[int32] // per LPA: index into nodes, 0 = not cached
	nodes []lruNode      // nodes[0] is the list sentinel: next = MRU, prev = LRU
	free  int32          // head of the unused nodes, chained through next; 0 = none
	n     int            // resident entries
}

type lruNode struct {
	lpa        int64
	prev, next int32
}

// newPageCache builds a cache of capEntries translations (at least one) over
// a logical space of totalSectors.
func newPageCache(capEntries, totalSectors int64) *pageCache {
	if capEntries < 1 {
		capEntries = 1
	}
	if capEntries > totalSectors {
		capEntries = totalSectors
	}
	c := &pageCache{
		slot:  newChunked[int32](totalSectors),
		nodes: make([]lruNode, capEntries+1),
		free:  1,
	}
	for i := int32(1); int64(i) < capEntries; i++ {
		c.nodes[i].next = i + 1
	}
	return c
}

func (c *pageCache) unlink(i int32) {
	nd := &c.nodes[i]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

func (c *pageCache) pushFront(i int32) {
	head := &c.nodes[0]
	nd := &c.nodes[i]
	nd.prev, nd.next = 0, head.next
	c.nodes[head.next].prev = i
	head.next = i
}

// touch makes a resident node the most recently used.
func (c *pageCache) touch(i int32) {
	if c.nodes[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// lookup reports whether lpa's translation is cached, refreshing its LRU
// position on a hit.
func (c *pageCache) lookup(lpa int64) bool {
	i := c.slot.get(lpa)
	if i == 0 {
		return false
	}
	c.touch(i)
	return true
}

// insert caches lpa, evicting the LRU entry if needed.
func (c *pageCache) insert(lpa int64) {
	if i := c.slot.get(lpa); i != 0 {
		c.touch(i)
		return
	}
	i := c.free
	if i != 0 {
		c.free = c.nodes[i].next
	} else {
		i = c.nodes[0].prev // full: the LRU node is reused in place
		c.unlink(i)
		c.slot.set(c.nodes[i].lpa, 0)
		c.n--
	}
	c.nodes[i].lpa = lpa
	c.slot.set(lpa, i)
	c.pushFront(i)
	c.n++
}

// update refreshes a cached translation after the table changed; a missing
// entry stays missing (writes do not populate the cache).
func (c *pageCache) update(lpa int64) {
	if i := c.slot.get(lpa); i != 0 {
		c.touch(i)
	}
}

// invalidate drops a cached translation.
func (c *pageCache) invalidate(lpa int64) {
	i := c.slot.get(lpa)
	if i == 0 {
		return
	}
	c.unlink(i)
	c.slot.set(lpa, 0)
	c.nodes[i].next = c.free
	c.free = i
	c.n--
}
