package experiments

import (
	"fmt"
	"strings"

	"grads/internal/chaossoak"
)

// DefaultSoakConfig is the published chaos-soak point (see
// chaossoak.DefaultConfig).
func DefaultSoakConfig() chaossoak.Config { return chaossoak.DefaultConfig() }

// RunSoak executes one chaos soak with the run's telemetry hub attached,
// so `gradsim -exp soak -trace out.jsonl` emits the byte-identical JSONL
// stream the CI determinism check compares.
func RunSoak(o Options, cfg chaossoak.Config) (*chaossoak.Result, error) {
	cfg.Telemetry = o.Telemetry
	return chaossoak.Run(cfg)
}

// RunSoakSmoke runs the compressed CI matrix: one short soak per seed,
// aggregating every violation. It fails fast on setup errors only — a
// violating run is reported through the results, not an error, so the
// caller can render all seeds before failing. It runs seeds 1, 2 and 3
// unless o.Seed is set.
func RunSoakSmoke(o Options) ([]*chaossoak.Result, error) {
	var out []*chaossoak.Result
	for _, seed := range o.Seeds(1, 2, 3) {
		r, err := RunSoak(o, chaossoak.SmokeConfig(seed))
		if err != nil {
			return nil, fmt.Errorf("soak smoke seed %d: %w", seed, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatSoak renders one soak's invariant report.
func FormatSoak(r *chaossoak.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d · %d jobs · %d kernel events · drained=%v at t=%s\n",
		r.Seed, r.Jobs, r.KernelEvents, r.Drained, Secs(r.Elapsed))
	fmt.Fprintf(&b, "invariants:  %d sweeps, %d violations\n", r.Checks, len(r.Violations))
	fmt.Fprintf(&b, "jobs:        %d done, %d failed, %d quarantined, %d lost\n",
		r.Done, r.Failed, r.Quarantined, r.LostJobs)
	fmt.Fprintf(&b, "faults:      %d injected, %d healed, %d skipped; detector suspects %d; observed node MTTR %s (%d repairs)\n",
		r.Injected, r.Recovered, r.Skipped, r.Suspects, Secs(r.MTTRMean), r.Repairs)
	fmt.Fprintf(&b, "recovery:    %d admissions, %d requeues, %d preempt shrinks, %d brownout rounds; %d service retries (%d gave up)\n",
		r.Admissions, r.Requeues, r.Preempts, r.Brownouts, r.Retries, r.GaveUp)
	fmt.Fprintf(&b, "guards:      %d breaker opens, %d fast-fails, %d budget denials\n",
		r.BreakerOpens, r.FastFails, r.BudgetDenied)
	fmt.Fprintf(&b, "checkpoints: %d corruptions detected, %d corrupt reads served, %d lineage fallbacks\n",
		r.CorruptDetected, r.CorruptServed, r.LineageFallbacks)

	b.WriteString("\n")
	t := &Table{Header: []string{"class", "jobs", "done", "failed", "quarantined", "mean_turnaround_s", "mean_requeues"}}
	for _, c := range r.PerClass {
		t.Add(c.Class, fmt.Sprint(c.Jobs), fmt.Sprint(c.Done), fmt.Sprint(c.Failed),
			fmt.Sprint(c.Quarantined), Secs(c.MeanTurnaround), fmt.Sprintf("%.2f", c.MeanRequeues))
	}
	b.WriteString(t.String())

	if len(r.FailedJobs) > 0 {
		b.WriteString("\nfailed jobs:\n")
		for _, f := range r.FailedJobs {
			fmt.Fprintf(&b, "  %s\n", f)
		}
	}
	if len(r.Violations) > 0 {
		b.WriteString("\nINVARIANT VIOLATIONS:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  t=%-10.1f [%s] %s\n", v.T, v.Invariant, v.Detail)
		}
	}
	return b.String()
}

// SoakTable is one soak's per-class outcome in raw values, for -csv.
func SoakTable(r *chaossoak.Result) *Table {
	t := &Table{Header: []string{"class", "jobs", "done", "failed", "quarantined", "mean_turnaround_s", "mean_requeues"}}
	for _, c := range r.PerClass {
		t.Add(c.Class, fmt.Sprint(c.Jobs), fmt.Sprint(c.Done), fmt.Sprint(c.Failed),
			fmt.Sprint(c.Quarantined), fmt.Sprint(c.MeanTurnaround), fmt.Sprintf("%.2f", c.MeanRequeues))
	}
	return t
}

// SoakFailure summarizes why a soak (or smoke matrix) must fail the run,
// or "" when every result is clean.
func SoakFailure(results []*chaossoak.Result) string {
	viol, lost := 0, 0
	for _, r := range results {
		viol += len(r.Violations)
		lost += r.LostJobs
	}
	if viol == 0 && lost == 0 {
		return ""
	}
	return fmt.Sprintf("%d invariant violations, %d lost jobs", viol, lost)
}
