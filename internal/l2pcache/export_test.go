package l2pcache

import "github.com/conzone/conzone/internal/mapping"

// Capacity returns the byte budget.
func (c *Cache) Capacity() int64 { return c.capBytes }

// Contains reports whether an entry of granularity g covering lpa is cached
// without touching LRU order or statistics.
func (c *Cache) Contains(g mapping.Gran, lpa int64) bool {
	return c.find(c.keyFor(g, lpa)) != 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.n }
