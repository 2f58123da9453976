package autopilot

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grads/internal/simcore"
)

func TestMembershipShapes(t *testing.T) {
	tri := Triangle(0, 1, 2)
	cases := []struct{ x, want float64 }{{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 0.5}, {2, 0}, {3, 0}}
	for _, c := range cases {
		if got := tri(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Triangle(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	g := Grade(1, 2)
	if g(0.5) != 0 || g(1.5) != 0.5 || g(3) != 1 {
		t.Fatal("Grade wrong")
	}
	rg := ReverseGrade(1, 2)
	if rg(0.5) != 1 || math.Abs(rg(1.5)-0.5) > 1e-12 || rg(3) != 0 {
		t.Fatal("ReverseGrade wrong")
	}
}

func TestEngineInference(t *testing.T) {
	temp := &Var{Name: "temp", Terms: map[string]MembershipFunc{
		"cold": ReverseGrade(10, 30),
		"hot":  Grade(20, 40),
	}}
	e := NewEngine(temp)
	e.MustRule(Rule{If: map[string]string{"temp": "cold"}, Output: 0})
	e.MustRule(Rule{If: map[string]string{"temp": "hot"}, Output: 1})
	if got := e.Eval(map[string]float64{"temp": 5}); got != 0 {
		t.Fatalf("cold eval = %v", got)
	}
	if got := e.Eval(map[string]float64{"temp": 45}); got != 1 {
		t.Fatalf("hot eval = %v", got)
	}
	// In the overlap region both terms fire and the outputs blend.
	mid := e.Eval(map[string]float64{"temp": 25})
	if mid <= 0 || mid >= 1 {
		t.Fatalf("blended eval = %v, want in (0,1)", mid)
	}
	// Missing input -> no rule fires -> 0.
	if got := e.Eval(nil); got != 0 {
		t.Fatalf("empty eval = %v", got)
	}
}

func TestEngineRuleValidation(t *testing.T) {
	e := NewEngine(&Var{Name: "x", Terms: map[string]MembershipFunc{"a": Grade(0, 1)}})
	if err := e.AddRule(Rule{If: map[string]string{"y": "a"}}); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if err := e.AddRule(Rule{If: map[string]string{"x": "zzz"}}); err == nil {
		t.Fatal("unknown term accepted")
	}
}

func TestViolationEngineSeverityOrdering(t *testing.T) {
	e := ViolationEngine()
	good := e.Eval(map[string]float64{"ratio": 1.0, "trend": 0})
	degraded := e.Eval(map[string]float64{"ratio": 1.8, "trend": 0})
	bad := e.Eval(map[string]float64{"ratio": 3.5, "trend": 0.3})
	if !(good < degraded && degraded < bad) {
		t.Fatalf("severities not ordered: %v %v %v", good, degraded, bad)
	}
	if good > 0.1 || bad < 0.9 {
		t.Fatalf("extremes wrong: good=%v bad=%v", good, bad)
	}
	// Worsening trend raises severity at the same ratio.
	steady := e.Eval(map[string]float64{"ratio": 1.6, "trend": 0})
	worse := e.Eval(map[string]float64{"ratio": 1.6, "trend": 0.3})
	if worse <= steady {
		t.Fatalf("trend ignored: steady=%v worsening=%v", steady, worse)
	}
}

// Property: fuzzy severity stays within [0, 1] for any inputs.
func TestQuickSeverityBounded(t *testing.T) {
	e := ViolationEngine()
	f := func(r, tr float64) bool {
		if math.IsNaN(r) || math.IsInf(r, 0) || math.IsNaN(tr) || math.IsInf(tr, 0) {
			return true
		}
		s := e.Eval(map[string]float64{"ratio": r, "trend": tr})
		return s >= 0 && s <= 1
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// contractHarness wires a monitor to synthetic predicted/actual series.
type contractHarness struct {
	predicted float64
	actual    float64
}

func (h *contractHarness) contract() *Contract {
	return &Contract{
		Name:      "test",
		Predicted: func() (float64, bool) { return h.predicted, true },
		Actual:    func() (float64, bool) { return h.actual, true },
	}
}

func TestMonitorDetectsSustainedViolation(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 10}
	m := NewMonitor(sim, h.contract(), 5)
	var got *Violation
	m.OnViolation = func(v Violation) bool {
		vv := v
		got = &vv
		h.actual = 10 // migration restores the promised performance
		return true
	}
	m.Start()
	// Healthy for 100s, then performance collapses (ratio 3x).
	sim.Schedule(100, func() { h.actual = 30 })
	sim.RunUntil(400)
	m.Stop()
	if got == nil {
		t.Fatal("sustained 3x slowdown not reported")
	}
	if got.Ratio < 2.0 || got.Severity < 0.5 {
		t.Fatalf("violation %+v looks too mild", got)
	}
	if got.Time < 100 {
		t.Fatalf("violation before the slowdown: t=%v", got.Time)
	}
	if m.violations != 1 {
		t.Fatalf("violations = %d, want 1 (history reset after action)", m.violations)
	}
}

func TestMonitorIgnoresTransientSpike(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 10}
	m := NewMonitor(sim, h.contract(), 5)
	fired := false
	m.OnViolation = func(Violation) bool { fired = true; return true }
	m.Start()
	// One bad sample among many good ones: the ratio exceeds the limit once
	// but the average stays low, so no violation (the paper's avg check).
	sim.Schedule(100, func() { h.actual = 30 })
	sim.Schedule(106, func() { h.actual = 10 })
	sim.RunUntil(300)
	m.Stop()
	if fired {
		t.Fatal("transient spike reported as violation")
	}
}

func TestMonitorWidensLimitsWhenReschedulerDeclines(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 25}
	m := NewMonitor(sim, h.contract(), 5)
	declines := 0
	m.OnViolation = func(Violation) bool { declines++; return false }
	m.Start()
	sim.RunUntil(500)
	m.Stop()
	if declines == 0 {
		t.Fatal("no violation ever reported")
	}
	upper := m.contract.UpperLimit
	if upper <= 2.0 {
		t.Fatalf("upper limit %v not widened after decline", upper)
	}
	widened := m.adjustUps
	if widened == 0 {
		t.Fatal("widening not counted")
	}
	// After widening, the same ratio must not retrigger forever.
	if declines > 3 {
		t.Fatalf("rescheduler spammed %d times despite adjustment", declines)
	}
}

func TestMonitorLowersLimitsWhenFaster(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 3} // consistently 0.3x
	m := NewMonitor(sim, h.contract(), 5)
	m.Start()
	sim.RunUntil(200)
	m.Stop()
	lower, upper := m.contract.LowerLimit, m.contract.UpperLimit
	if lower >= 0.5 {
		t.Fatalf("lower limit %v not lowered for a fast app", lower)
	}
	if upper <= 1 {
		t.Fatalf("upper limit %v fell to/below 1", upper)
	}
	lowered := m.adjustDown
	if lowered == 0 {
		t.Fatal("lowering not counted")
	}
}

func TestMonitorSkipsWhenSensorsNotReady(t *testing.T) {
	sim := simcore.New(1)
	c := &Contract{
		Name:      "noready",
		Predicted: func() (float64, bool) { return 0, false },
		Actual:    func() (float64, bool) { return 5, true },
	}
	m := NewMonitor(sim, c, 5)
	m.OnViolation = func(Violation) bool { t.Error("violation with no data"); return true }
	m.Start()
	sim.RunUntil(100)
	m.Stop()
	if m.AvgRatio() != 0 {
		t.Fatalf("ratios recorded with unready sensors: %v", m.AvgRatio())
	}
}
