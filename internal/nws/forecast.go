// Package nws reproduces the role of the Network Weather Service in GrADS:
// periodic sensors measure CPU availability and end-to-end network latency
// and bandwidth on the emulated Grid, and a forecaster ensemble predicts
// their near-future values. Schedulers and reschedulers consume the
// forecasts when ranking resources and evaluating migrations.
//
// The forecasting design follows NWS: several simple predictors run in
// parallel on each measurement series, each predictor's one-step-ahead error
// is tracked, and the ensemble's forecast is the prediction of whichever
// predictor has been most accurate so far.
package nws

import (
	"math"
	"sort"
)

// Forecaster predicts the next value of a scalar time series.
type Forecaster interface {
	// Update feeds the next observed value.
	Update(v float64)
	// Forecast predicts the next value. Before any update it returns NaN.
	Forecast() float64
}

// LastValue predicts the most recent observation.
type LastValue struct {
	v   float64
	has bool
}

// Update implements Forecaster.
func (f *LastValue) Update(v float64) { f.v, f.has = v, true }

// Forecast implements Forecaster.
func (f *LastValue) Forecast() float64 {
	if !f.has {
		return math.NaN()
	}
	return f.v
}

// RunningMean predicts the mean of all observations.
type RunningMean struct {
	sum float64
	n   int
}

// Update implements Forecaster.
func (f *RunningMean) Update(v float64) { f.sum += v; f.n++ }

// Forecast implements Forecaster.
func (f *RunningMean) Forecast() float64 {
	if f.n == 0 {
		return math.NaN()
	}
	return f.sum / float64(f.n)
}

// window is a fixed ring of the last w observations, allocated once at
// construction so sliding forecasters update without allocating.
type window struct {
	buf  []float64 // cap w; len grows to w, then stays
	next int       // slot the next observation overwrites once full
}

func newWindow(w int) window {
	if w < 1 {
		w = 1
	}
	return window{buf: make([]float64, 0, w)}
}

func (r *window) push(v float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
}

// oldestFirst returns the ring's two segments in arrival order.
func (r *window) oldestFirst() (older, newer []float64) {
	return r.buf[r.next:], r.buf[:r.next]
}

// SlidingMean predicts the mean of the last w observations.
type SlidingMean struct {
	win window
}

// NewSlidingMean creates a sliding-window mean predictor of width w (>= 1).
func NewSlidingMean(w int) *SlidingMean {
	return &SlidingMean{win: newWindow(w)}
}

// Update implements Forecaster.
func (f *SlidingMean) Update(v float64) { f.win.push(v) }

// Forecast implements Forecaster. It sums oldest to newest: float addition
// is not associative, and forecasts feed scheduling decisions.
func (f *SlidingMean) Forecast() float64 {
	n := len(f.win.buf)
	if n == 0 {
		return math.NaN()
	}
	older, newer := f.win.oldestFirst()
	sum := 0.0
	for _, v := range older {
		sum += v
	}
	for _, v := range newer {
		sum += v
	}
	return sum / float64(n)
}

// SlidingMedian predicts the median of the last w observations; it is robust
// to the load spikes common in grid CPU series.
type SlidingMedian struct {
	win     window
	scratch []float64 // cap w; the sorted copy Forecast reads
}

// NewSlidingMedian creates a sliding-window median predictor of width w.
func NewSlidingMedian(w int) *SlidingMedian {
	win := newWindow(w)
	return &SlidingMedian{win: win, scratch: make([]float64, 0, cap(win.buf))}
}

// Update implements Forecaster.
func (f *SlidingMedian) Update(v float64) { f.win.push(v) }

// Forecast implements Forecaster.
func (f *SlidingMedian) Forecast() float64 {
	n := len(f.win.buf)
	if n == 0 {
		return math.NaN()
	}
	tmp := append(f.scratch[:0], f.win.buf...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// ExpSmooth predicts with exponential smoothing: s <- a*v + (1-a)*s.
type ExpSmooth struct {
	alpha float64
	s     float64
	has   bool
}

// NewExpSmooth creates an exponential-smoothing predictor with factor alpha
// in (0, 1].
func NewExpSmooth(alpha float64) *ExpSmooth {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &ExpSmooth{alpha: alpha}
}

// Update implements Forecaster.
func (f *ExpSmooth) Update(v float64) {
	if !f.has {
		f.s, f.has = v, true
		return
	}
	f.s = f.alpha*v + (1-f.alpha)*f.s
}

// Forecast implements Forecaster.
func (f *ExpSmooth) Forecast() float64 {
	if !f.has {
		return math.NaN()
	}
	return f.s
}

// Ensemble runs several predictors on one series and forecasts with the one
// whose cumulative one-step-ahead absolute error is lowest, exactly as NWS
// selects its forecasting method per series.
type Ensemble struct {
	members []Forecaster
	errSum  []float64
	n       int
}

// NewEnsemble creates an ensemble over the given members; with none given it
// uses the standard NWS-style set.
func NewEnsemble(members ...Forecaster) *Ensemble {
	if len(members) == 0 {
		members = []Forecaster{
			&LastValue{},
			&RunningMean{},
			NewSlidingMean(10),
			NewSlidingMedian(10),
			NewExpSmooth(0.25),
			NewExpSmooth(0.75),
		}
	}
	return &Ensemble{members: members, errSum: make([]float64, len(members))}
}

// Update scores every member's previous forecast against v, then feeds v to
// all members.
func (e *Ensemble) Update(v float64) {
	if e.n > 0 {
		for i, m := range e.members {
			p := m.Forecast()
			if !math.IsNaN(p) {
				e.errSum[i] += math.Abs(p - v)
			}
		}
	}
	for _, m := range e.members {
		m.Update(v)
	}
	e.n++
}

// Forecast returns the best member's prediction, or NaN before any update.
func (e *Ensemble) Forecast() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	best, bestErr := -1, math.Inf(1)
	for i := range e.members {
		if e.errSum[i] < bestErr {
			best, bestErr = i, e.errSum[i]
		}
	}
	return e.members[best].Forecast()
}

// Observations returns how many values the ensemble has seen.
func (e *Ensemble) Observations() int { return e.n }
