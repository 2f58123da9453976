package experiments

import (
	"strings"
	"testing"
)

// TestRunServeSweep: the full default sweep preserves request conservation
// (enforced inside runServeCell), reports sane metrics per cell, and at the
// highest contention the bandit beats blind round-robin on fleet p95 — the
// headline claim of the checked-in report.
func TestRunServeSweep(t *testing.T) {
	cfg := DefaultServeConfig()
	res, err := RunServe(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Rates) * len(cfg.Policies); len(res) != want {
		t.Fatalf("got %d cells, want %d", len(res), want)
	}
	byKey := map[string]ServeResult{}
	for _, r := range res {
		s := r.Stats
		if s.Requests == 0 {
			t.Fatalf("%s/%.2f: empty cell", r.Policy, r.Rate)
		}
		if s.Pending != 0 {
			t.Fatalf("%s/%.2f: %d requests still pending at drain", r.Policy, r.Rate, s.Pending)
		}
		if s.Fairness <= 0 || s.Fairness > 1 {
			t.Fatalf("%s/%.2f: Jain index %.3f outside (0, 1]", r.Policy, r.Rate, s.Fairness)
		}
		if s.P95 < s.P50 || s.P99 < s.P95 {
			t.Fatalf("%s/%.2f: quantiles not monotone: %+v", r.Policy, r.Rate, s)
		}
		if len(s.Classes) != 3 {
			t.Fatalf("%s/%.2f: %d classes, want 3", r.Policy, r.Rate, len(s.Classes))
		}
		byKey[r.Policy] = r
	}
	top := cfg.Rates[len(cfg.Rates)-1]
	ucb, rr := byKey["ucb"], byKey["rr"]
	if ucb.Rate != top || rr.Rate != top {
		t.Fatalf("missing highest-rate cells: ucb at %.2f, rr at %.2f", ucb.Rate, rr.Rate)
	}
	if ucb.Stats.P95 >= rr.Stats.P95 {
		t.Fatalf("bandit p95 %.1f s not below round-robin %.1f s at %.2f req/s",
			ucb.Stats.P95, rr.Stats.P95, top)
	}

	out := FormatServe(res)
	for _, want := range []string{"ucb", "least", "rr", "int", "batch", "bulk", "the bandit holds p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if csv := ServeClassTable(res).CSV(); !strings.Contains(csv, "policy,rate_rps,class") {
		t.Fatalf("CSV header missing:\n%s", csv)
	}
}

// TestRunServeDeterministic: the same sweep twice yields the same report
// byte-for-byte (the serve report joins the -exp all determinism contract).
func TestRunServeDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunServe(Options{}, DefaultServeConfig())
		if err != nil {
			t.Fatal(err)
		}
		return FormatServe(res)
	}
	if a, b := run(), run(); a != b {
		t.Fatal("identical serve sweeps produced different reports")
	}
}

// TestRunArrivals: the explicit-workload runner echoes the canonical spec
// and reports through the standard tables.
func TestRunArrivals(t *testing.T) {
	out, err := RunArrivals(Options{Seed: 4}, "poisson@0-400:rate=0.1,mix=int:1", "least")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"poisson@0-400:rate=0.1,mix=int:1", "least", "fleet view"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if _, err := RunArrivals(Options{}, "burst@0-10:rate=1", "least"); err == nil {
		t.Fatal("bad arrivals spec accepted")
	}
	if _, err := RunArrivals(Options{}, "poisson@0-10:rate=1", "random-forest"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
