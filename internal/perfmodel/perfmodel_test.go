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

func qrFlops(n float64) float64 { return 4.0 / 3.0 * n * n * n }

func TestFitComponentQRCurve(t *testing.T) {
	// Profile small sizes 200..1000, extrapolate to 8000 (the paper's
	// methodology: small-run counters -> least-squares -> big-run predict).
	var samples []Sample
	for n := 200.0; n <= 1000; n += 200 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n)})
	}
	cm, err := FitComponent("qr", samples, 3)
	if err != nil {
		t.Fatalf("FitComponent: %v", err)
	}
	pred := cm.FlopsAt(8000)
	want := qrFlops(8000)
	if math.Abs(pred-want)/want > 1e-6 {
		t.Fatalf("extrapolated flops = %v, want %v", pred, want)
	}
}

func TestComponentTimeScalesWithNode(t *testing.T) {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e6, 0)
	fast := g.AddNode(topology.NodeSpec{
		Name: "fast", Site: "A", MHz: 1000, FlopsPerCycle: 1,
	})
	slow := g.AddNode(topology.NodeSpec{
		Name: "slow", Site: "A", MHz: 250, FlopsPerCycle: 1,
	})
	var samples []Sample
	for n := 100.0; n <= 500; n += 100 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n)})
	}
	cm, err := FitComponent("qr", samples, 3)
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

func TestFitComponentNoSamples(t *testing.T) {
	if _, err := FitComponent("x", nil, 1); err == nil {
		t.Fatal("no samples accepted")
	}
}

func TestCrossValidateExtrapolation(t *testing.T) {
	// Exact cubic data: held-out large sizes predicted perfectly.
	var samples []Sample
	for n := 100.0; n <= 1000; n += 100 {
		samples = append(samples, Sample{N: n, Flops: qrFlops(n)})
	}
	relErr, err := CrossValidate(samples, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 1e-9 {
		t.Fatalf("cubic cross-validation error = %v", relErr)
	}
	// Underfitting (linear model on cubic data) shows large error.
	relErrBad, err := CrossValidate(samples, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if relErrBad < 0.2 {
		t.Fatalf("linear fit of cubic data reported error %v, want large", relErrBad)
	}
	if _, err := CrossValidate(samples, 0, 1); err == nil {
		t.Fatal("holdOut=0 accepted")
	}
	if _, err := CrossValidate(samples, len(samples), 1); err == nil {
		t.Fatal("holdOut=all accepted")
	}
}
