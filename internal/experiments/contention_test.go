package experiments

import (
	"reflect"
	"strings"
	"testing"

	"grads/internal/metasched"
)

func smallContentionConfig() ContentionConfig {
	cfg := DefaultContentionConfig()
	cfg.Interarrivals = []float64{30}
	cfg.Jobs = 8
	return cfg
}

// TestRunContentionSweep: the saturated-arrival sweep completes every job
// under every policy with sane metrics, and the urgent latecomer forces at
// least one SRS preemption under a priority-ordered policy.
func TestRunContentionSweep(t *testing.T) {
	res, err := RunContention(Options{}, smallContentionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(metasched.Policies()) {
		t.Fatalf("got %d cells, want one per policy", len(res))
	}
	preempted := 0
	for _, r := range res {
		if r.Done != r.Jobs || r.Failed != 0 {
			t.Fatalf("%s: done=%d failed=%d of %d jobs", r.Policy, r.Done, r.Failed, r.Jobs)
		}
		if r.Makespan <= 0 || r.MeanWait < 0 || r.P95Wait < r.MeanWait {
			t.Fatalf("%s: implausible metrics %+v", r.Policy, r)
		}
		if r.Fairness <= 0 || r.Fairness > 1 {
			t.Fatalf("%s: Jain index %.3f outside (0, 1]", r.Policy, r.Fairness)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Fatalf("%s: utilization %.3f outside (0, 1]", r.Policy, r.Utilization)
		}
		if r.Policy == metasched.PolicyFIFO && r.PreemptOrders != 0 {
			t.Fatalf("fifo cell issued %d preemption orders, want 0", r.PreemptOrders)
		}
		if r.Policy != metasched.PolicyFIFO {
			preempted += r.Preempted
		}
	}
	if preempted == 0 {
		t.Fatal("no priority cell applied an SRS preemption; the urgent job never triggered one")
	}

	out := FormatContention(res)
	if !strings.Contains(out, "fifo") || !strings.Contains(out, "priority-backfill") {
		t.Fatalf("report missing policies:\n%s", out)
	}
	if csv := ContentionTable(res).CSV(); !strings.Contains(csv, "policy,mean_gap_s") {
		t.Fatalf("CSV header missing:\n%s", csv)
	}
}

// TestContentionDeterministic: the same seeded cell produces the exact same
// result struct twice.
func TestContentionDeterministic(t *testing.T) {
	cfg := smallContentionConfig()
	run := func() ContentionResult {
		r, err := runContentionCell(Options{}, cfg, metasched.PolicyBackfill, 30)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded contention runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestContentionStreamShape: the generated stream is sorted by submit time,
// mixes both application kinds, and carries exactly one urgent wide QR.
func TestContentionStreamShape(t *testing.T) {
	cfg := smallContentionConfig()
	specs := contentionStream(cfg, 30)
	if len(specs) != cfg.Jobs {
		t.Fatalf("got %d specs, want %d", len(specs), cfg.Jobs)
	}
	kinds := map[string]int{}
	urgent := 0
	for i, s := range specs {
		kinds[s.Kind]++
		if i > 0 && s.Submit < specs[i-1].Submit {
			t.Fatalf("submissions out of order at %d: %g < %g", i, s.Submit, specs[i-1].Submit)
		}
		if strings.Contains(s.Name, "urgent") {
			urgent++
			if s.Bid < 10 || s.Width < 8 {
				t.Fatalf("urgent job too meek: %+v", s)
			}
		}
	}
	if urgent != 1 {
		t.Fatalf("got %d urgent jobs, want 1", urgent)
	}
	if kinds["qr"] == 0 || kinds["task-farm"] == 0 {
		t.Fatalf("stream not mixed: %v", kinds)
	}
}
