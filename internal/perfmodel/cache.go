package perfmodel

import "grads/internal/topology"

// DefaultCacheEntries bounds a Cache created with NewCache(0).
const DefaultCacheEntries = 1 << 16

// TransferKey identifies one point-to-point transfer estimate: the two end
// nodes, the byte count (as math.Float64bits, so distinct float64 values
// never collide and equal ones always hit) and the network's state version,
// which covers the flow set, background load, degradations and latency
// factors the estimate reads.
type TransferKey struct {
	From, To *topology.Node
	Bytes    uint64
	Version  int64
}

// Cache memoizes transfer estimates. Schedulers re-estimate the same
// transfers thousands of times per search — three heuristics times many
// rounds over the same matrix — and a network estimate is expensive; it is
// pure in its TransferKey, so a hit returns exactly the float64 a fresh
// estimate would produce. Cached and uncached searches are therefore
// indistinguishable, and eviction only ever costs time, never changes a
// result.
//
// Cache is not safe for concurrent use; like the rest of the emulator it
// lives in single-threaded simulation code.
type Cache struct {
	max    int
	m      map[TransferKey]float64
	hits   uint64
	misses uint64
	resets uint64
}

// NewCache creates a cache bounded to max entries; max <= 0 selects
// DefaultCacheEntries. When the bound is reached the cache is cleared
// wholesale (LRU bookkeeping would cost more than the occasional cold
// restart).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{max: max, m: make(map[TransferKey]float64)}
}

// Lookup returns the memoized estimate for k and whether it was found.
func (c *Cache) Lookup(k TransferKey) (float64, bool) {
	v, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Store memoizes the estimate for k.
func (c *Cache) Store(k TransferKey, v float64) {
	if len(c.m) >= c.max {
		clear(c.m)
		c.resets++
	}
	c.m[k] = v
}

// Stats returns the lookup hit and miss counts and how many times the cache
// was cleared on overflow.
func (c *Cache) Stats() (hits, misses, resets uint64) { return c.hits, c.misses, c.resets }
