package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	if got := p.Eval(2); got != 17 {
		t.Fatalf("Eval(2) = %v, want 17", got)
	}
	if Poly(nil).Eval(5) != 0 {
		t.Fatal("empty poly should evaluate to 0")
	}
}

func TestPolyfitRecoversExactPolynomial(t *testing.T) {
	want := Poly{3, -2, 0.5, 0.01} // cubic
	var xs, ys []float64
	for x := 1.0; x <= 12; x++ {
		xs = append(xs, x)
		ys = append(ys, want.Eval(x))
	}
	got, err := Polyfit(xs, ys, 3)
	if err != nil {
		t.Fatalf("Polyfit: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("coefficient %d = %v, want %v", i, got[i], want[i])
		}
	}
	if r := got.Residual(xs, ys); r > 1e-6 {
		t.Fatalf("residual = %v", r)
	}
}

func TestPolyfitErrors(t *testing.T) {
	if _, err := Polyfit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Polyfit([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Fatal("underdetermined fit accepted")
	}
	// Duplicate x values of different y make the system singular for high
	// degree.
	if _, err := Polyfit([]float64{1, 1, 1}, []float64{1, 2, 3}, 2); err == nil {
		t.Fatal("singular system accepted")
	}
	if _, err := Polyfit([]float64{1, 2, 3}, []float64{1, 2, 3}, -1); err == nil {
		t.Fatal("negative degree accepted")
	}
}

// Property: least squares never fits worse (RMS) than the zero polynomial
// on centered data, and exactly interpolates when points == degree+1.
func TestQuickPolyfitInterpolates(t *testing.T) {
	f := func(raw [4]int8) bool {
		xs := []float64{1, 2, 3, 4}
		ys := make([]float64, 4)
		for i, r := range raw {
			ys[i] = float64(r)
		}
		p, err := Polyfit(xs, ys, 3)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(p.Eval(xs[i])-ys[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// syntheticHist builds the MRD histogram of a blocked matrix sweep:
// one hot group reused within a block (distance ~ constant), one group with
// distance growing linearly in n, one growing quadratically (whole-matrix
// reuse).
func syntheticHist(n float64) Histogram {
	return Histogram{
		{Dist: 64, Count: 100 * n},
		{Dist: 2 * n, Count: 10 * n},
		{Dist: n * n / 8, Count: n},
	}
}

func TestFitMRDExtrapolatesMisses(t *testing.T) {
	ns := []float64{100, 200, 300, 400, 500}
	hists := make([]Histogram, len(ns))
	for i, n := range ns {
		hists[i] = syntheticHist(n)
	}
	m, err := FitMRD(ns, hists, 2)
	if err != nil {
		t.Fatalf("FitMRD: %v", err)
	}
	// At n=2000 the true histogram is known; compare misses for a cache of
	// 2048 lines: group1 (dist 64) hits; group2 (dist 4000) misses -> 20000;
	// group3 (dist 500000) misses -> 2000. Total 22000.
	got := m.Misses(2000, 2048)
	if math.Abs(got-22000) > 1 {
		t.Fatalf("predicted misses = %v, want 22000", got)
	}
	acc := m.Accesses(2000)
	want := 100*2000.0 + 10*2000 + 2000
	if math.Abs(acc-want) > 1 {
		t.Fatalf("predicted accesses = %v, want %v", acc, want)
	}
	ratio := m.MissRatio(2000, 2048)
	if math.Abs(ratio-22000/want) > 1e-6 {
		t.Fatalf("miss ratio = %v", ratio)
	}
}

func TestFitMRDLargerCacheNeverMoreMisses(t *testing.T) {
	ns := []float64{100, 200, 300, 400}
	hists := make([]Histogram, len(ns))
	for i, n := range ns {
		hists[i] = syntheticHist(n)
	}
	m, err := FitMRD(ns, hists, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 500.0; n <= 4000; n += 500 {
		small := m.Misses(n, 1024)
		big := m.Misses(n, 65536)
		if big > small {
			t.Fatalf("larger cache produced more misses at n=%v: %v > %v", n, big, small)
		}
	}
}

func TestFitMRDErrors(t *testing.T) {
	if _, err := FitMRD(nil, nil, 1); err == nil {
		t.Fatal("empty inputs accepted")
	}
	h1 := Histogram{{Dist: 1, Count: 1}}
	h2 := Histogram{{Dist: 1, Count: 1}, {Dist: 2, Count: 2}}
	if _, err := FitMRD([]float64{1, 2}, []Histogram{h1, h2}, 0); err == nil {
		t.Fatal("ragged histograms accepted")
	}
}

func TestHistogramMisses(t *testing.T) {
	h := Histogram{{Dist: 10, Count: 5}, {Dist: 100, Count: 7}, {Dist: 1000, Count: 11}}
	if h.Misses(50) != 18 {
		t.Fatalf("Misses(50) = %v, want 18", h.Misses(50))
	}
	if h.Misses(1e6) != 0 {
		t.Fatal("infinite cache should miss nothing")
	}
	if h.Accesses() != 23 {
		t.Fatalf("Accesses = %v", h.Accesses())
	}
}

func qrFlops(n float64) float64 { return 4.0 / 3.0 * n * n * n }

func TestFitComponentQRCurve(t *testing.T) {
	// Profile small sizes 200..1000, extrapolate to 8000 (the paper's
	// methodology: small-run counters -> least-squares -> big-run predict).
	var samples []Sample
	for n := 200.0; n <= 1000; n += 200 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n), Hist: syntheticHist(n)})
	}
	cm, err := FitComponent("qr", samples, 3, 2)
	if err != nil {
		t.Fatalf("FitComponent: %v", err)
	}
	pred := cm.FlopsAt(8000)
	want := qrFlops(8000)
	if math.Abs(pred-want)/want > 1e-6 {
		t.Fatalf("extrapolated flops = %v, want %v", pred, want)
	}
	if cm.MRD == nil {
		t.Fatal("MRD model missing despite histograms")
	}
}

func TestComponentTimeScalesWithNode(t *testing.T) {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e6, 0)
	fast := g.AddNode(topology.NodeSpec{
		Name: "fast", Site: "A", MHz: 1000, FlopsPerCycle: 1,
		Cache: topology.CacheConfig{L2KB: 512, LineBytes: 32},
	})
	slow := g.AddNode(topology.NodeSpec{
		Name: "slow", Site: "A", MHz: 250, FlopsPerCycle: 1,
		Cache: topology.CacheConfig{L2KB: 512, LineBytes: 32},
	})
	var samples []Sample
	for n := 100.0; n <= 500; n += 100 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n)})
	}
	cm, err := FitComponent("qr", samples, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tf, ts := cm.Time(2000, fast), cm.Time(2000, slow)
	if math.Abs(ts/tf-4) > 1e-6 {
		t.Fatalf("time ratio slow/fast = %v, want 4", ts/tf)
	}
	// Loaded node takes proportionally longer.
	if got := cm.TimeLoaded(2000, fast, 0.5); math.Abs(got-2*tf) > 1e-9 {
		t.Fatalf("TimeLoaded(0.5) = %v, want %v", got, 2*tf)
	}
	if cm.TimeLoaded(2000, fast, 0) <= 0 {
		t.Fatal("zero availability should clamp, not divide by zero")
	}
}

func TestComponentTimeIncludesMemoryPenalty(t *testing.T) {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e6, 0)
	tiny := g.AddNode(topology.NodeSpec{
		Name: "tinycache", Site: "A", MHz: 1000, FlopsPerCycle: 1,
		Cache: topology.CacheConfig{L2KB: 16, LineBytes: 32}, // 512 lines
	})
	big := g.AddNode(topology.NodeSpec{
		Name: "bigcache", Site: "A", MHz: 1000, FlopsPerCycle: 1,
		Cache: topology.CacheConfig{L2KB: 4096, LineBytes: 32}, // 131072 lines
	})
	var samples []Sample
	for n := 100.0; n <= 500; n += 100 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n), Hist: syntheticHist(n)})
	}
	cm, err := FitComponent("qr", samples, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Time(600, tiny) <= cm.Time(600, big) {
		t.Fatal("small cache should pay more memory stall time")
	}
}

func TestFitComponentNoSamples(t *testing.T) {
	if _, err := FitComponent("x", nil, 1, 1); err == nil {
		t.Fatal("no samples accepted")
	}
}

func TestCrossValidateExtrapolation(t *testing.T) {
	// Exact cubic data: held-out large sizes predicted perfectly.
	var samples []Sample
	for n := 100.0; n <= 1000; n += 100 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n)})
	}
	relErr, err := CrossValidate(samples, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 1e-9 {
		t.Fatalf("cubic cross-validation error = %v", relErr)
	}
	// Underfitting (linear model on cubic data) shows large error.
	relErrBad, err := CrossValidate(samples, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relErrBad < 0.2 {
		t.Fatalf("linear fit of cubic data reported error %v, want large", relErrBad)
	}
	if _, err := CrossValidate(samples, 0, 1, 0); err == nil {
		t.Fatal("holdOut=0 accepted")
	}
	if _, err := CrossValidate(samples, len(samples), 1, 0); err == nil {
		t.Fatal("holdOut=all accepted")
	}
}
