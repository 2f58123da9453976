package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are safe on
// a nil receiver (no-ops returning zero), which is the disabled-telemetry
// fast path: instrumented code holds a nil *Counter and pays one predictable
// branch per Add. Counters are uint64 and wrap on overflow, like every
// fixed-width counter; Merge adds modulo 2^64 as well.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Merge folds another counter's count into this one (modulo 2^64).
func (c *Counter) Merge(o *Counter) {
	if c == nil || o == nil {
		return
	}
	c.v.Add(o.v.Load())
}

// Gauge is a last-write-wins instantaneous value. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histSubBits is the number of sub-bucket bits per power-of-two octave:
// 2^histSubBits sub-buckets per octave bounds the relative quantile error
// at 2^-histSubBits (~6% with 4 bits) independent of the value range.
const histSubBits = 4

// Histogram aggregates positive float64 observations into log-spaced
// buckets (16 sub-buckets per power of two), giving deterministic quantile
// estimates with bounded relative error over an unbounded range. Zero and
// negative observations land in a dedicated underflow bucket treated as the
// smallest value. Nil-safe like Counter.
type Histogram struct {
	mu       sync.Mutex
	buckets  map[int]uint64
	under    uint64 // observations <= 0
	count    uint64
	sum      float64
	min, max float64
}

// bucketIndex maps a positive value to its log-spaced bucket.
func bucketIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	sub := int((frac - 0.5) * float64(int(2)<<histSubBits))
	if sub>>histSubBits != 0 { // frac rounding at 1.0
		sub = 1<<histSubBits - 1
	}
	return exp<<histSubBits | sub
}

// bucketUpper returns the exclusive upper bound of a bucket, the value the
// quantile estimator reports for observations in it.
func bucketUpper(idx int) float64 {
	exp := idx >> histSubBits
	sub := idx & (1<<histSubBits - 1)
	frac := 0.5 + float64(sub+1)/float64(int(2)<<histSubBits)
	return math.Ldexp(frac, exp)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 || math.IsNaN(v) {
		h.under++
		return
	}
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
	}
	h.buckets[bucketIndex(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation (0 with none).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation (0 with none).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile estimates the q-quantile (q in [0, 1]) as the upper bound of the
// bucket where the cumulative count crosses q. The estimate is exact to
// within one sub-bucket (~6% relative error) and is clamped to the observed
// [min, max]. It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	if h.under >= rank {
		return h.min
	}
	cum := h.under
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		cum += h.buckets[i]
		if cum >= rank {
			v := bucketUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Quantiles estimates several quantiles in one pass over the buckets (one
// lock, one bucket sort), returning the estimates in the order the qs were
// given. It is the batch form of Quantile for report tables that read
// p50/p95/p99 of the same histogram; each estimate carries the same
// one-sub-bucket accuracy bound. With no observations every entry is 0.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h == nil || len(qs) == 0 {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return out
	}
	// Rank of each requested quantile, then one cumulative walk over the
	// sorted buckets answering every rank as it is crossed.
	ranks := make([]uint64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		r := uint64(math.Ceil(q * float64(h.count)))
		if r == 0 {
			r = 1
		}
		ranks[i] = r
	}
	order := make([]int, len(qs)) // positions sorted by ascending rank
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	cum, next := h.under, 0
	for next < len(order) && ranks[order[next]] <= cum {
		out[order[next]] = h.min // rank lands in the underflow bucket
		next++
	}
	for _, bi := range idxs {
		if next == len(order) {
			break
		}
		cum += h.buckets[bi]
		for next < len(order) && ranks[order[next]] <= cum {
			v := bucketUpper(bi)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			out[order[next]] = v
			next++
		}
	}
	for ; next < len(order); next++ {
		out[order[next]] = h.max
	}
	return out
}

// Merge folds another histogram's samples into this one.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	o.mu.Lock()
	ocount, osum, omin, omax, ounder := o.count, o.sum, o.min, o.max, o.under
	obuckets := make(map[int]uint64, len(o.buckets))
	for i, n := range o.buckets {
		obuckets[i] = n
	}
	o.mu.Unlock()
	if ocount == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || omin < h.min {
		h.min = omin
	}
	if h.count == 0 || omax > h.max {
		h.max = omax
	}
	h.count += ocount
	h.sum += osum
	h.under += ounder
	if h.buckets == nil {
		h.buckets = make(map[int]uint64, len(obuckets))
	}
	for i, n := range obuckets {
		h.buckets[i] += n
	}
}
