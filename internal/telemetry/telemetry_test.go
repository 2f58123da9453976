package telemetry_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// --- metrics ---

func TestCounterBasics(t *testing.T) {
	c := telemetry.New().Counter("comp", "hits")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterOverflowWraps(t *testing.T) {
	tel := telemetry.New()
	c := tel.Counter("comp", "wrap")
	c.Add(math.MaxUint64 - 4)
	c.Add(10) // crosses 2^64
	if got := c.Value(); got != 5 {
		t.Fatalf("overflowed counter = %d, want 5 (wrap mod 2^64)", got)
	}
}

func TestCounterMerge(t *testing.T) {
	tel := telemetry.New()
	a := tel.Counter("comp", "a")
	b := tel.Counter("comp", "b")
	a.Add(100)
	b.Add(23)
	a.Merge(b)
	if got := a.Value(); got != 123 {
		t.Fatalf("merged counter = %d, want 123", got)
	}
	// Merge wraps like Add.
	c := tel.Counter("comp", "c")
	d := tel.Counter("comp", "d")
	c.Add(math.MaxUint64)
	d.Add(2)
	c.Merge(d)
	if got := c.Value(); got != 1 {
		t.Fatalf("merged overflow = %d, want 1", got)
	}
}

func TestGauge(t *testing.T) {
	g := telemetry.New().Gauge("comp", "level")
	g.Set(2.5)
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %g, want -7", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := telemetry.New().Histogram("comp", "lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %g", h.Max())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("mean = %g, want 500.5", got)
	}
	// Log-bucketed quantiles are exact to one sub-bucket (~6% relative).
	checks := []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.07 {
			t.Errorf("q%.2f = %g, want %g +/- 7%% (err %.1f%%)", c.q, got, c.want, rel*100)
		}
	}
	// Quantiles never leave the observed range.
	if q := h.Quantile(0); q < 1 || q > 1000 {
		t.Errorf("q0 = %g outside [1,1000]", q)
	}
}

// TestHistogramQuantileAccuracyBound sweeps heavy- and light-tailed seeded
// distributions and requires p50/p95/p99 estimates within the documented
// one-sub-bucket bound (2^-4 relative, with rounding slack: 7%) of the exact
// empirical quantile, and the batch Quantiles readout identical to repeated
// Quantile calls regardless of argument order.
func TestHistogramQuantileAccuracyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []struct {
		name string
		draw func() float64
	}{
		{"uniform", func() float64 { return 1 + rng.Float64()*999 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 30 }},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*1.5 + 2) }},
		{"bimodal", func() float64 {
			if rng.Intn(10) == 0 {
				return 5000 + rng.Float64()*1000
			}
			return 1 + rng.Float64()*10
		}},
	}
	qs := []float64{0.5, 0.95, 0.99}
	for _, d := range dists {
		h := telemetry.New().Histogram("comp", d.name)
		samples := make([]float64, 20000)
		for i := range samples {
			samples[i] = d.draw()
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		got := h.Quantiles(qs...)
		for i, q := range qs {
			rank := int(math.Ceil(q*float64(len(samples)))) - 1
			exact := samples[rank]
			if rel := math.Abs(got[i]-exact) / exact; rel > 0.07 {
				t.Errorf("%s q%g = %g, want %g +/- 7%% (err %.2f%%)",
					d.name, q, got[i], exact, rel*100)
			}
			if single := h.Quantile(q); single != got[i] {
				t.Errorf("%s q%g: Quantiles=%g disagrees with Quantile=%g",
					d.name, q, got[i], single)
			}
		}
		// Batch answers must not depend on argument order.
		rev := h.Quantiles(0.99, 0.5, 0.95)
		if rev[0] != got[2] || rev[1] != got[0] || rev[2] != got[1] {
			t.Errorf("%s: Quantiles order-sensitive: %v vs %v", d.name, got, rev)
		}
	}
}

// TestHistogramQuantilesEdge pins the batch readout's edge behaviour: nil
// and empty receivers, underflow-bucket ranks, and out-of-range qs.
func TestHistogramQuantilesEdge(t *testing.T) {
	var nilH *telemetry.Histogram
	if got := nilH.Quantiles(0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Errorf("nil Quantiles = %v", got)
	}
	empty := telemetry.New().Histogram("comp", "empty")
	if got := empty.Quantiles(0.5); got[0] != 0 {
		t.Errorf("empty Quantiles = %v", got)
	}
	h := telemetry.New().Histogram("comp", "under")
	h.Observe(-3)
	h.Observe(-1)
	h.Observe(10)
	got := h.Quantiles(-1, 0.3, 2)
	if got[0] != -3 || got[1] != -3 {
		t.Errorf("underflow ranks = %v, want min -3", got)
	}
	if got[2] < 9 || got[2] > 10 {
		t.Errorf("q>1 clamps to max: got %g", got[2])
	}
}

func TestHistogramConstantAndNonPositive(t *testing.T) {
	h := telemetry.New().Histogram("comp", "c")
	for i := 0; i < 10; i++ {
		h.Observe(3.25)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); math.Abs(got-3.25) > 3.25*0.07 {
			t.Errorf("constant q%.1f = %g, want ~3.25", q, got)
		}
	}
	z := telemetry.New().Histogram("comp", "z")
	z.Observe(0)
	z.Observe(-5)
	z.Observe(10)
	if z.Count() != 3 {
		t.Fatalf("count = %d", z.Count())
	}
	if got := z.Quantile(0.3); got != -5 {
		t.Errorf("underflow quantile = %g, want min -5", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	tel := telemetry.New()
	a := tel.Histogram("comp", "a")
	b := tel.Histogram("comp", "b")
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 200 || a.Max() != 200 {
		t.Fatalf("merged count/max = %d/%g", a.Count(), a.Max())
	}
	if got := a.Quantile(0.5); math.Abs(got-100)/100 > 0.07 {
		t.Errorf("merged p50 = %g, want ~100", got)
	}
}

func TestNilSafety(t *testing.T) {
	var tel *telemetry.Telemetry
	tel.Emit(telemetry.Event{Type: "x"})
	tel.AddSink(telemetry.NewBuffer())
	tel.SetClock(func() float64 { return 1 })
	if tel.Close() != nil || tel.Summary() == "" {
		t.Fatal("nil hub misbehaved")
	}
	c := tel.Counter("a", "b")
	c.Inc()
	c.Add(5)
	c.Merge(nil)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := tel.Gauge("a", "b")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := tel.Histogram("a", "b")
	h.Observe(1)
	h.Merge(nil)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram observed")
	}
}

// --- registration identity ---

func TestMetricIdentity(t *testing.T) {
	tel := telemetry.New()
	if tel.Counter("x", "n") != tel.Counter("x", "n") {
		t.Fatal("same name returned distinct counters")
	}
	if tel.Counter("x", "n") == tel.Counter("y", "n") {
		t.Fatal("distinct components share a counter")
	}
}

// --- trace events over the kernel ---

// TestTraceEventOrderingInterleavedProcs runs two interleaved simulated
// processes and checks the event stream: sequence numbers strictly
// increase, timestamps never go backwards, and each process's lifecycle
// (spawn -> resume -> ... -> exit) is internally ordered.
func TestTraceEventOrderingInterleavedProcs(t *testing.T) {
	sim := simcore.New(7)
	tel := telemetry.New()
	buf := telemetry.NewBuffer()
	tel.AddSink(buf)
	sim.SetTelemetry(tel)

	for _, cfg := range []struct {
		name  string
		sleep float64
		iters int
	}{{"alpha", 1.0, 5}, {"beta", 1.5, 4}} {
		cfg := cfg
		sim.Spawn(cfg.name, func(p *simcore.Proc) {
			for i := 0; i < cfg.iters; i++ {
				if err := p.Sleep(cfg.sleep); err != nil {
					return
				}
			}
		})
	}
	sim.Run()

	events := buf.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var lastSeq uint64
	lastT := math.Inf(-1)
	phase := map[string]int{} // name -> 0 none, 1 spawned, 2 running, 3 exited
	for i, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing after %d", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.T < lastT {
			t.Fatalf("event %d: time %g went backwards from %g", i, e.T, lastT)
		}
		lastT = e.T
		switch e.Type {
		case telemetry.EvProcSpawn:
			if phase[e.Name] != 0 {
				t.Fatalf("%s spawned twice", e.Name)
			}
			phase[e.Name] = 1
		case telemetry.EvProcResume, telemetry.EvProcPark:
			if phase[e.Name] == 0 || phase[e.Name] == 3 {
				t.Fatalf("%s %s while in phase %d", e.Name, e.Type, phase[e.Name])
			}
			phase[e.Name] = 2
		case telemetry.EvProcExit:
			if phase[e.Name] != 2 {
				t.Fatalf("%s exited from phase %d", e.Name, phase[e.Name])
			}
			phase[e.Name] = 3
		}
	}
	for _, name := range []string{"alpha", "beta"} {
		if phase[name] != 3 {
			t.Errorf("%s never completed its lifecycle (phase %d)", name, phase[name])
		}
	}
	// Kernel counters agree with the trace.
	spawns := tel.Counter("simcore", "procs_spawned").Value()
	if spawns != 2 {
		t.Errorf("procs_spawned = %d, want 2", spawns)
	}
	if fired := tel.Counter("simcore", "events_fired").Value(); fired == 0 {
		t.Error("events_fired = 0")
	}
}

// TestJSONLDeterministic emits an identical event sequence through two
// hubs and requires byte-identical JSONL output.
func TestJSONLDeterministic(t *testing.T) {
	run := func() []byte {
		var out bytes.Buffer
		sim := simcore.New(3)
		tel := telemetry.New()
		tel.AddSink(telemetry.NewJSONL(&out))
		sim.SetTelemetry(tel)
		sim.Spawn("w", func(p *simcore.Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(0.5)
			}
		})
		sim.Run()
		if err := tel.Close(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different JSONL bytes")
	}
	if len(a) == 0 {
		t.Fatal("empty JSONL output")
	}
}

// --- Chrome trace export ---

// goldenEvents is a fixed stream covering instants, spans, multiple
// components and every arg type.
func goldenEvents() []telemetry.Event {
	return []telemetry.Event{
		{T: 0, Seq: 1, Type: telemetry.EvProcSpawn, Comp: "simcore", Name: "qr",
			Args: []telemetry.Arg{telemetry.I("id", 1), telemetry.F("start_t", 0)}},
		{T: 1.5, Seq: 2, Type: telemetry.EvCPUShare, Comp: "cpu:utk1",
			Args: []telemetry.Arg{telemetry.S("reason", "task-start"), telemetry.I("tasks", 1), telemetry.F("rate_ops_s", 5e8)}},
		{T: 4.25, Seq: 3, Type: telemetry.EvFlowEnd, Comp: "netsim", Name: "qr", Dur: 2.75,
			Args: []telemetry.Arg{telemetry.F("bytes", 1e6)}},
		{T: 9, Seq: 4, Type: telemetry.EvReschedDecision, Comp: "rescheduler",
			Args: []telemetry.Arg{telemetry.B("migrate", true), telemetry.S("reason", "predicted benefit 100s")}},
		{T: 12, Seq: 5, Type: telemetry.EvProcExit, Comp: "simcore", Name: "qr",
			Args: []telemetry.Arg{telemetry.I("id", 1)}},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var got bytes.Buffer
	if err := telemetry.WriteChromeTrace(&got, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chrome trace differs from golden file\ngot:  %s\nwant: %s", got.Bytes(), want)
	}
}

func TestChromeSink(t *testing.T) {
	var out bytes.Buffer
	s := telemetry.NewChromeSink(&out)
	for _, e := range goldenEvents() {
		s.Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("chrome sink output lacks traceEvents")
	}
}

// --- summary ---

func TestSummary(t *testing.T) {
	tel := telemetry.New()
	tel.Counter("zeta", "n").Add(3)
	tel.Gauge("alpha", "g").Set(1.5)
	tel.Histogram("alpha", "h").Observe(2)
	s := tel.Summary()
	for _, want := range []string{"alpha", "zeta", "counter", "gauge", "histogram", "n=1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Deterministic output.
	if s != tel.Summary() {
		t.Error("summary not stable")
	}
}

// --- event args ---

func TestEventArgLookup(t *testing.T) {
	e := telemetry.Event{Args: []telemetry.Arg{telemetry.F("x", 2), telemetry.S("y", "z")}}
	if v, ok := e.Arg("y"); !ok || v != "z" {
		t.Fatalf("Arg(y) = %v, %v", v, ok)
	}
	if _, ok := e.Arg("missing"); ok {
		t.Fatal("found missing arg")
	}
}
