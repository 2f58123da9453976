package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/experiments"
	"grads/internal/listsched"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

func tinyOptions(t *testing.T, workload string, seed int64, trace bool) options {
	return options{workload: workload, seed: seed, seconds: 0.01, trace: trace, tiny: true, out: t.TempDir()}
}

// benchSpec is the part of BENCHMARK.json the program must agree with.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		units := map[string]string{}
		for _, d := range want {
			units[d.name] = d.unit
		}
		for _, m := range got {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s [%s]: program has unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestTinyRunsPrintEveryMetric runs every workload at tiny size, untraced
// and traced, on a tuning seed and on a held-out one.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, seed := range []int64{1, 9001} {
			for _, trace := range []bool{false, true} {
				r, err := bench(tinyOptions(t, name, seed, trace))
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
				}
				if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
					t.Errorf("%s seed %d trace %v: correct=%v attempted=%d failed=%d problems=%v",
						name, seed, trace, r.res.Correct, r.res.Attempted, r.res.Failed, r.problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.res.Metrics) != len(defs) {
					t.Errorf("%s: %d metrics, want %d", name, len(r.res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s trace %v: metric %s = %+v (present %v)", name, trace, d.name, m, ok)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
					}
				}
				if trace {
					sum := 0.0
					for _, l := range cpuLayers {
						sum += r.res.Metrics[l+".cpu_s"].Value
					}
					sum += r.res.Metrics["other.cpu_s"].Value + r.res.Metrics["runtime.bg_cpu_s"].Value
					if total := r.res.Metrics["profile.cpu_s"].Value; math.Abs(sum-total) > 1e-9 {
						t.Errorf("%s: per-package CPU sums to %v, profile total %v", name, sum, total)
					}
				}
			}
		}
	}
}

func TestDigestRepeatsAcrossProcessRuns(t *testing.T) {
	a, err := bench(tinyOptions(t, "dag-plan", 3, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench(tinyOptions(t, "dag-plan", 3, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("digest %016x untraced, %016x traced", a.digest, b.digest)
	}
	c, err := bench(tinyOptions(t, "dag-plan", 4, false))
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Errorf("seeds 3 and 4 share digest %016x", a.digest)
	}
}

// flipDigest is a workload whose modelled results change after the first
// rep, as a nondeterministic program's would.
type flipDigest struct {
	workload
	reps int
}

func (f *flipDigest) run(tel *telemetry.Telemetry, sp *spans) *outcome {
	o := f.workload.run(tel, sp)
	f.reps++
	if f.reps > 1 {
		o.digest++
	}
	return o
}

func TestDigestMismatchFailsRun(t *testing.T) {
	workloads["flip-digest"] = func() workload { return &flipDigest{workload: &dagPlan{}} }
	defer delete(workloads, "flip-digest")
	r, err := bench(tinyOptions(t, "flip-digest", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.res.Correct || r.res.Failed != r.res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want every unit failed", r.res.Correct, r.res.Failed, r.res.Attempted)
	}
}

// TestCorruptedPlanIsCounted breaks a valid plan in the ways the output
// checks must catch.
func TestCorruptedPlanIsCounted(t *testing.T) {
	env := experiments.NewEnv(1, topology.MacroGrid, "test", 0)
	nodes := env.Grid.Nodes()
	wf, err := apps.EMANWorkflow(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	wf = wf.Expand()
	cp := wf.CriticalPathTime(nodes)
	plan := func() (*listsched.Context, *listsched.Result) {
		s := core.NewScheduler(env.Grid, nil)
		sched, err := s.Schedule(wf, nodes)
		if err != nil {
			t.Fatal(err)
		}
		ctx := listsched.NewContext(s, wf, nodes)
		res, err := scheduleResult(ctx, sched)
		if err != nil {
			t.Fatal(err)
		}
		return ctx, res
	}
	ctx, res := plan()
	if err := checkPlan(ctx, res, cp); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	corruptions := map[string]func(*listsched.Result){
		"early start": func(r *listsched.Result) {
			last := len(r.Assignments) - 1
			r.Assignments[last].Start -= 1
			r.Assignments[last].Finish -= 1
		},
		"short makespan": func(r *listsched.Result) { r.Makespan = cp / 2 },
	}
	for name, corrupt := range corruptions {
		ctx, res := plan()
		corrupt(res)
		o := &outcome{attempted: 1}
		if err := checkPlan(ctx, res, cp); err != nil {
			o.fail(1, "%v", err)
		}
		if o.failed != 1 {
			t.Errorf("%s: corrupted plan not counted as failed", name)
		}
	}
	if err := checkPlan(ctx, res, res.Makespan*2); err == nil {
		t.Error("plan shorter than its critical-path bound passed")
	}
	for _, executed := range []float64{math.NaN(), math.Inf(1), res.Makespan / 2} {
		if err := checkExecuted(executed, res.Makespan); err == nil {
			t.Errorf("executed makespan %v against predicted %v passed", executed, res.Makespan)
		}
	}
	if err := checkExecuted(res.Makespan*1.5, res.Makespan); err != nil {
		t.Errorf("a slowed execution failed: %v", err)
	}
}

// TestReferenceLoop pins the host-speed reference: it repeats its result,
// and a calibrated phase reports positive scaled times.
func TestReferenceLoop(t *testing.T) {
	if d := refLoop(); d != refDigest {
		t.Fatalf("reference loop returned %016x, then %016x", refDigest, d)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cal.timed(func() { refLoop() })
	if err != nil {
		t.Fatal(err)
	}
	if c.wall <= 0 || c.cpu <= 0 {
		t.Errorf("calibrated phase: wall %v cpu %v, want both > 0", c.wall, c.cpu)
	}
	if len(cal.walls) != 2 {
		t.Errorf("%d reference readings around one phase, want 2", len(cal.walls))
	}
	if ws, cs := cal.scale(); !(ws > 0 && cs > 0) || math.IsInf(ws, 0) || math.IsInf(cs, 0) {
		t.Errorf("scale factors %v, %v", ws, cs)
	}
}

// TestDagPlanRatesDiffer checks that dag-plan's two throughput metrics
// count different things: plans per second and tasks placed per second.
func TestDagPlanRatesDiffer(t *testing.T) {
	r, err := bench(tinyOptions(t, "dag-plan", 1, false))
	if err != nil {
		t.Fatal(err)
	}
	ev, tasks := r.res.Metrics["events_per_s"].Value, r.res.Metrics["tasks_per_s"].Value
	if ev <= 0 || ev >= tasks {
		t.Errorf("events_per_s %v, tasks_per_s %v: want 0 < plans/s < tasks/s", ev, tasks)
	}
}

// TestServeBurstShedsNothing runs the 0.035 req/s stream of seed
// 1269210554 at full size. Under the default serving breaker a burst there
// opened the int class's breaker and shed three requests below the knee.
func TestServeBurstShedsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size stream")
	}
	w := &serveFleet{}
	if err := w.setup(1269210554, false, nil); err != nil {
		t.Fatal(err)
	}
	w.reqs = w.reqs[1:2]
	o := w.run(nil, nil)
	if o.failed != 0 {
		t.Errorf("%d of %d requests failed: %v", o.failed, o.attempted, o.problems)
	}
}
