package perfmodel

import "grads/internal/topology"

// DefaultCacheEntries bounds a Cache created with NewCache(0).
const DefaultCacheEntries = 1 << 16

// TransferKey identifies one route's transfer parameters: the ordered pair
// of end sites and the network's state version, which covers the flow set,
// background load, degradations and latency factors the parameters read.
// The site pair stands for the route because a route between two distinct
// nodes depends only on their sites (the site LAN within a site, LAN–WAN–LAN
// across sites); callers handle the same-node case before keying.
type TransferKey struct {
	From, To *topology.Site
	Version  int64
}

// Route holds what a transfer estimate reads from the network: the route's
// summed latency and the rate a new flow over it would receive. Neither
// depends on the byte count, so one entry serves every transfer over the
// route: Latency + bytes/Rate is the expression
// netsim.TransferTimeEstimate evaluates, bit for bit.
type Route struct {
	Latency, Rate float64
}

// Cache memoizes per-route transfer parameters. Schedulers re-estimate
// transfers over the same few routes thousands of times per search — three
// heuristics times many rounds over the same matrix, with a different byte
// count per edge — and a rate estimate re-solves part of the network. The
// parameters are pure in their TransferKey, so a hit yields exactly the
// float64 a fresh estimate would produce. Cached and uncached searches are
// therefore indistinguishable, and eviction only ever costs time, never
// changes a result.
//
// Cache is not safe for concurrent use; like the rest of the emulator it
// lives in single-threaded simulation code.
type Cache struct {
	max    int
	m      map[TransferKey]Route
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
	return &Cache{max: max, m: make(map[TransferKey]Route)}
}

// Lookup returns the memoized route parameters for k and whether they were
// found.
func (c *Cache) Lookup(k TransferKey) (Route, bool) {
	v, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Store memoizes the route parameters for k.
func (c *Cache) Store(k TransferKey, v Route) {
	if len(c.m) >= c.max {
		clear(c.m)
		c.resets++
	}
	c.m[k] = v
}

// Stats returns the lookup hit and miss counts and how many times the cache
// was cleared on overflow.
func (c *Cache) Stats() (hits, misses, resets uint64) { return c.hits, c.misses, c.resets }
