package legacy

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// listLRU is the page cache as it was before the index-linked rewrite: a
// container/list LRU over a map. It stays here as the reference the new
// cache must match operation for operation.
type listLRU struct {
	capEntries int64
	m          map[int64]*list.Element
	lru        *list.List // front = MRU; values are int64 LPAs
}

func newListLRU(capEntries int64) *listLRU {
	if capEntries < 1 {
		capEntries = 1
	}
	return &listLRU{capEntries: capEntries, m: make(map[int64]*list.Element), lru: list.New()}
}

func (c *listLRU) lookup(lpa int64) bool {
	el, ok := c.m[lpa]
	if ok {
		c.lru.MoveToFront(el)
	}
	return ok
}

func (c *listLRU) insert(lpa int64) {
	if el, ok := c.m[lpa]; ok {
		c.lru.MoveToFront(el)
		return
	}
	for int64(c.lru.Len()) >= c.capEntries {
		back := c.lru.Back()
		delete(c.m, back.Value.(int64))
		c.lru.Remove(back)
	}
	c.m[lpa] = c.lru.PushFront(lpa)
}

func (c *listLRU) update(lpa int64) {
	if el, ok := c.m[lpa]; ok {
		c.lru.MoveToFront(el)
	}
}

func (c *listLRU) invalidate(lpa int64) {
	if el, ok := c.m[lpa]; ok {
		delete(c.m, lpa)
		c.lru.Remove(el)
	}
}

// order returns the resident LPAs from most to least recently used: the
// resident set and, read backwards, the order evictions will take.
func (c *listLRU) order() []int64 {
	var out []int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(int64))
	}
	return out
}

func (c *pageCache) order() []int64 {
	var out []int64
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].lpa)
	}
	return out
}

// TestPageCacheMatchesListLRU drives both caches with one seeded stream of
// lookups, prefetch-window inserts, updates and invalidations. Every lookup
// must hit or miss alike, and both must hold the same LPAs in the same recency
// order — which fixes every future eviction.
func TestPageCacheMatchesListLRU(t *testing.T) {
	const space = 8192
	for _, capEntries := range []int64{0, 1, 3, 3072} {
		t.Run(fmt.Sprintf("cap%d", capEntries), func(t *testing.T) {
			rng := rand.New(rand.NewSource(capEntries + 14))
			got, want := newPageCache(capEntries, space), newListLRU(capEntries)
			var hits, evicting int
			for op := 0; op < 20000; op++ {
				lpa := int64(rng.Intn(space))
				if rng.Intn(3) > 0 { // keep most traffic in a range the larger caches can hold
					lpa %= 4 * (capEntries + 8)
				}
				switch r := rng.Intn(10); {
				case r < 4:
					g, w := got.lookup(lpa), want.lookup(lpa)
					if g != w {
						t.Fatalf("op %d: lookup(%d) = %v, the list LRU says %v", op, lpa, g, w)
					}
					if g {
						hits++
					}
				case r < 7:
					// A miss loads the aligned window around the LPA, as
					// Device.ReadInto does.
					n := int64(1 + rng.Intn(64))
					for w := lpa - lpa%n; w < lpa-lpa%n+n && w < space; w++ {
						if int64(want.lru.Len()) >= want.capEntries {
							evicting++
						}
						got.insert(w)
						want.insert(w)
					}
				case r < 8:
					got.update(lpa)
					want.update(lpa)
				default:
					got.invalidate(lpa)
					want.invalidate(lpa)
				}
				if got.len() != want.lru.Len() {
					t.Fatalf("op %d: %d resident, the list LRU holds %d", op, got.len(), want.lru.Len())
				}
				if capEntries > 3 && op%50 != 0 && op != 19999 {
					continue // the full walk of a large cache runs on a sample of operations
				}
				g, w := got.order(), want.order()
				if len(g) != len(w) {
					t.Fatalf("op %d: %d linked entries, the list LRU holds %d", op, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("op %d: recency position %d holds LPA %d, the list LRU holds %d", op, i, g[i], w[i])
					}
				}
			}
			if hits == 0 || evicting == 0 {
				t.Errorf("stream had %d hits and %d inserts into a full cache: it must have both", hits, evicting)
			}
		})
	}
}

// TestPageCacheSteadyStateAllocs pins the point of the rewrite: once built,
// the cache never allocates, whatever mix of operations runs.
func TestPageCacheSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	const space = 1 << 16
	c := newPageCache(3072, space)
	for lpa := int64(0); lpa < 4096; lpa++ { // warm-up: fill and start evicting
		c.insert(lpa)
	}
	next := int64(4096)
	allocs := testing.AllocsPerRun(100, func() {
		// One miss's worth: a 1024-entry window inserted into a full
		// cache, then hits, an update and an invalidation.
		for w := next; w < next+1024; w++ {
			c.insert(w % space)
		}
		c.lookup(next % space)
		c.update((next + 1) % space)
		c.invalidate((next + 2) % space)
		next += 1024
	})
	if allocs != 0 {
		t.Errorf("steady-state cache operations allocate %v times per miss, want 0", allocs)
	}
}
