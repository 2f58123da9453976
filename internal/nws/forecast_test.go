package nws

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func feed(f Forecaster, vs ...float64) {
	for _, v := range vs {
		f.Update(v)
	}
}

func TestLastValue(t *testing.T) {
	f := &LastValue{}
	if !math.IsNaN(f.Forecast()) {
		t.Fatal("empty forecast should be NaN")
	}
	feed(f, 1, 2, 3)
	if f.Forecast() != 3 {
		t.Fatalf("LastValue = %v", f.Forecast())
	}
}

func TestRunningMean(t *testing.T) {
	f := &RunningMean{}
	feed(f, 1, 2, 3, 4)
	if f.Forecast() != 2.5 {
		t.Fatalf("RunningMean = %v", f.Forecast())
	}
}

func TestSlidingMeanWindow(t *testing.T) {
	f := NewSlidingMean(3)
	feed(f, 100, 1, 2, 3) // 100 falls out of the window
	if f.Forecast() != 2 {
		t.Fatalf("SlidingMean = %v, want 2", f.Forecast())
	}
}

func TestSlidingMedianRobustToSpike(t *testing.T) {
	f := NewSlidingMedian(5)
	feed(f, 1, 1, 1, 1000, 1)
	if f.Forecast() != 1 {
		t.Fatalf("SlidingMedian = %v, want 1", f.Forecast())
	}
	g := NewSlidingMedian(4)
	feed(g, 1, 2, 3, 4)
	if g.Forecast() != 2.5 {
		t.Fatalf("even-window median = %v, want 2.5", g.Forecast())
	}
}

func TestExpSmooth(t *testing.T) {
	f := NewExpSmooth(0.5)
	feed(f, 10)
	if f.Forecast() != 10 {
		t.Fatalf("first value = %v", f.Forecast())
	}
	feed(f, 20)
	if f.Forecast() != 15 {
		t.Fatalf("smoothed = %v, want 15", f.Forecast())
	}
	// Constructor clamps nonsense alphas.
	if NewExpSmooth(-3).alpha != 0.5 || NewExpSmooth(2).alpha != 0.5 {
		t.Fatal("alpha clamp failed")
	}
}

func TestEnsemblePicksAccurateMember(t *testing.T) {
	// A constant series: every member converges, but after a single outlier
	// the median should beat the last-value predictor.
	e := NewEnsemble()
	for i := 0; i < 20; i++ {
		e.Update(5)
	}
	e.Update(50) // spike
	e.Update(5)
	e.Update(5)
	if got := e.Forecast(); math.Abs(got-5) > 1 {
		t.Fatalf("ensemble forecast %v, want ~5 despite spike", got)
	}
	if e.Observations() != 23 {
		t.Fatalf("Observations = %d", e.Observations())
	}
}

func TestEnsembleTracksStep(t *testing.T) {
	// After a step change and enough post-step samples, the forecast should
	// be near the new level (the last-value / sliding members adapt).
	e := NewEnsemble()
	for i := 0; i < 30; i++ {
		e.Update(1.0)
	}
	for i := 0; i < 30; i++ {
		e.Update(0.25)
	}
	if got := e.Forecast(); math.Abs(got-0.25) > 0.1 {
		t.Fatalf("post-step forecast %v, want ~0.25", got)
	}
}

func TestEnsembleEmpty(t *testing.T) {
	e := NewEnsemble()
	if !math.IsNaN(e.Forecast()) {
		t.Fatal("empty ensemble should forecast NaN")
	}
}

// Property: for any bounded series, the ensemble forecast stays within the
// observed min/max envelope (all members are convex combinations of inputs).
func TestQuickForecastWithinEnvelope(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		e := NewEnsemble()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			e.Update(v)
		}
		got := e.Forecast()
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: on a constant series every forecaster converges exactly.
func TestQuickConstantSeriesExact(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		k := int(n%50) + 2
		val := float64(v)
		members := []Forecaster{
			&LastValue{}, &RunningMean{}, NewSlidingMean(5),
			NewSlidingMedian(5), NewExpSmooth(0.3),
		}
		for _, m := range members {
			for i := 0; i < k; i++ {
				m.Update(val)
			}
			if math.Abs(m.Forecast()-val) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// refSlidingMean and refSlidingMedian are the append-and-slide forecasters
// the fixed rings replaced, kept as the reference the rings must match bit
// for bit.
type refSlidingMean struct {
	w   int
	buf []float64
}

func (f *refSlidingMean) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

func (f *refSlidingMean) Forecast() float64 {
	if len(f.buf) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range f.buf {
		sum += v
	}
	return sum / float64(len(f.buf))
}

type refSlidingMedian struct {
	w   int
	buf []float64
}

func (f *refSlidingMedian) Update(v float64) {
	f.buf = append(f.buf, v)
	if len(f.buf) > f.w {
		f.buf = f.buf[1:]
	}
}

func (f *refSlidingMedian) Forecast() float64 {
	n := len(f.buf)
	if n == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), f.buf...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// TestSlidingRingsMatchReference: over seeded series whose values span
// many magnitudes, so that summation order shows in the low bits, every
// forecast of the ring-backed predictors equals the reference's bit for
// bit — before any observation, while the window fills, and after it
// slides.
func TestSlidingRingsMatchReference(t *testing.T) {
	for _, w := range []int{1, 2, 10} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pairs := []struct {
				got, want interface {
					Update(float64)
					Forecast() float64
				}
			}{
				{NewSlidingMean(w), &refSlidingMean{w: w}},
				{NewSlidingMedian(w), &refSlidingMedian{w: w}},
			}
			for i := 0; i <= 5*w+7; i++ {
				for _, p := range pairs {
					if got, want := p.got.Forecast(), p.want.Forecast(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%T w=%d seed=%d after %d values: %v, reference %v", p.got, w, seed, i, got, want)
					}
				}
				v := rng.Float64() * math.Pow(10, float64(rng.Intn(17)-8))
				for _, p := range pairs {
					p.got.Update(v)
					p.want.Update(v)
				}
			}
		}
	}
}

var forecastSink float64

// BenchmarkEnsembleUpdate is one NWS measurement on a warm series: the
// default six-member ensemble scores and updates every member, then
// forecasts, with both sliding windows already full.
func BenchmarkEnsembleUpdate(b *testing.B) {
	e := NewEnsemble()
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 64)
	for i := range vs {
		vs[i] = rng.Float64()
	}
	for _, v := range vs[:20] {
		e.Update(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Update(vs[n%len(vs)])
		forecastSink = e.Forecast()
	}
}
