package perfmodel

import "strconv"

// DefaultCacheEntries bounds a Cache created with NewCache(0).
const DefaultCacheEntries = 1 << 16

// Cache memoizes performance-model evaluations keyed by an application key
// plus a nodeset signature. Schedulers re-evaluate identical (component,
// node, availability) combinations thousands of times per search — three
// heuristics times many rounds over the same matrix — and reschedulers
// re-price the same candidate sets every tick; the model evaluations are
// pure, so their results can be replayed from the cache bit-identically.
//
// Correctness rests on the key actually covering every input of the
// evaluation: callers build signatures with Sig, including every float
// (problem size, availability, virtual time for time-varying estimates)
// that the computation reads. Sig encodes floats losslessly, so a cache hit
// returns exactly the float64 a fresh evaluation would produce, and cached
// and uncached runs are indistinguishable — eviction only ever costs time,
// never changes a result.
//
// Cache is not safe for concurrent use; like the rest of the emulator it
// lives in single-threaded simulation code.
type Cache struct {
	max    int
	m      map[string]float64
	hits   uint64
	misses uint64
	resets uint64
}

// NewCache creates a cache bounded to max entries; max <= 0 selects
// DefaultCacheEntries. When the bound is reached the cache is cleared
// wholesale (evaluations are cheap enough that LRU bookkeeping would cost
// more than the occasional cold restart).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{max: max, m: make(map[string]float64)}
}

// Lookup returns the memoized value for (app, sig) and whether it was found.
func (c *Cache) Lookup(app, sig string) (float64, bool) {
	v, ok := c.m[app+"\x00"+sig]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Store memoizes a value for (app, sig).
func (c *Cache) Store(app, sig string, v float64) {
	if len(c.m) >= c.max {
		clear(c.m)
		c.resets++
	}
	c.m[app+"\x00"+sig] = v
}

// Stats returns the lookup hit and miss counts and how many times the cache
// was cleared on overflow.
func (c *Cache) Stats() (hits, misses, resets uint64) { return c.hits, c.misses, c.resets }

// Sig incrementally builds a cache signature from the inputs of a model
// evaluation. The zero value is ready to use. Floats are encoded in the
// shortest form that round-trips exactly, so distinct float64 values never
// collide; fields are separated so concatenations cannot alias.
type Sig struct{ buf []byte }

// S appends a string field.
func (s *Sig) S(v string) *Sig {
	s.buf = append(s.buf, v...)
	s.buf = append(s.buf, '|')
	return s
}

// F appends a float field, encoded losslessly.
func (s *Sig) F(v float64) *Sig {
	s.buf = strconv.AppendFloat(s.buf, v, 'g', -1, 64)
	s.buf = append(s.buf, '|')
	return s
}

// I appends an integer field (version counters, sizes).
func (s *Sig) I(v int64) *Sig {
	s.buf = strconv.AppendInt(s.buf, v, 10)
	s.buf = append(s.buf, '|')
	return s
}

// String returns the accumulated signature.
func (s *Sig) String() string { return string(s.buf) }
