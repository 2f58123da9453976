package experiments

import (
	"fmt"
	"math/rand"

	"grads/internal/core"
	"grads/internal/listsched"
	"grads/internal/topology"
)

// DagZooConfig parameterizes the DAG-zoo leaderboard: every list-scheduling
// heuristic × rescheduling policy over a suite of synthetic DAG classes on
// the MacroGrid, with a mid-run node slowdown.
type DagZooConfig struct {
	Seed       int64
	Trials     int    // seeds (fresh DAG + grid) per class
	Zoo        string // zoo spec ("" = the default suite below)
	SlowFactor float64
}

// DefaultDagZooConfig returns the published leaderboard configuration.
func DefaultDagZooConfig() DagZooConfig {
	return DagZooConfig{Seed: 11, Trials: 5, SlowFactor: 3}
}

// dagZooPolicies are the rescheduling policies the leaderboard compares:
// ride out the slowdown on the original plan, or re-map the unstarted tasks
// around it.
var dagZooPolicies = []string{"static", "remap"}

// defaultDagZooSuite is the published class set: the low- and high-CCR
// variants stress where communication-aware heuristics should win.
var defaultDagZooSuite = []struct{ label, spec string }{
	{"chain", "chain:n=16,ccr=0.5"},
	{"fanout-lo", "fanout:width=24,ccr=0.25"},
	{"fanout-hi", "fanout:width=24,ccr=4"},
	{"diamond", "diamond:width=6,layers=4,ccr=1"},
	{"layered-hi", "layered:layers=4,width=8,fanin=3,ccr=4"},
	{"eman", "eman:n=400,width=8"},
}

// DagZooCell aggregates one (heuristic, policy) pair over a class's trials.
type DagZooCell struct {
	Heuristic string
	Policy    string
	MeanMk    float64 // mean executed (static) or re-planned (remap) makespan
	MeanSLR   float64 // makespan / critical-path lower bound
	MeanUtil  float64 // planned-schedule utilization
	Wins      int     // trials where this heuristic was strictly best under the policy
}

// DagZooClass is one DAG class's leaderboard.
type DagZooClass struct {
	Label string
	Spec  listsched.ZooSpec
	Tasks int
	Cells []DagZooCell // heuristic-major, policy-minor
}

// RunDagZoo runs the leaderboard. Every schedule produced along the way is
// passed through the listsched validity harness; a violation fails the
// experiment rather than silently skewing the table.
func RunDagZoo(o Options, cfg DagZooConfig) ([]DagZooClass, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("dagzoo: %d trials", cfg.Trials)
	}
	if cfg.SlowFactor < 1 {
		return nil, fmt.Errorf("dagzoo: slow factor %v < 1", cfg.SlowFactor)
	}
	suite := defaultDagZooSuite
	if cfg.Zoo != "" {
		specs, err := listsched.ParseZoo(cfg.Zoo)
		if err != nil {
			return nil, err
		}
		suite = suite[:0:0]
		for _, z := range specs {
			suite = append(suite, struct{ label, spec string }{z.String(), z.String()})
		}
	}

	heuristics := listsched.Names()
	out := make([]DagZooClass, 0, len(suite))
	for classIdx, entry := range suite {
		specs, err := listsched.ParseZoo(entry.spec)
		if err != nil {
			return nil, err
		}
		z := specs[0]
		cls := DagZooClass{Label: entry.label, Spec: z, Tasks: z.Tasks()}

		type agg struct {
			mk, slr, util float64
			wins          int
		}
		aggs := make(map[string]*agg, len(heuristics)*len(dagZooPolicies))
		for _, h := range heuristics {
			for _, p := range dagZooPolicies {
				aggs[h+"/"+p] = &agg{}
			}
		}

		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(classIdx)*10_007 + int64(trial)))
			env := o.NewEnv(cfg.Seed+int64(trial), topology.MacroGrid, "dagzoo", 0)
			wf, err := z.Build(rng)
			if err != nil {
				return nil, fmt.Errorf("dagzoo %s trial %d: %w", cls.Label, trial, err)
			}
			s := core.NewScheduler(env.Grid, nil)
			resources := env.Grid.Nodes()
			cp := wf.CriticalPathTime(resources)
			if cp <= 0 {
				return nil, fmt.Errorf("dagzoo %s trial %d: critical path %v", cls.Label, trial, cp)
			}

			// Per-policy makespans of this trial, for win counting.
			mks := map[string][]float64{}
			for _, name := range heuristics {
				h, err := listsched.New(name)
				if err != nil {
					return nil, err
				}
				staticMk, remapMk, util, err := dagZooTrial(s, wf, resources, h, cfg.SlowFactor)
				if err != nil {
					return nil, fmt.Errorf("dagzoo %s trial %d %s: %w", cls.Label, trial, name, err)
				}
				a := aggs[name+"/static"]
				a.mk += staticMk
				a.slr += staticMk / cp
				a.util += util
				a = aggs[name+"/remap"]
				a.mk += remapMk
				a.slr += remapMk / cp
				a.util += util
				mks["static"] = append(mks["static"], staticMk)
				mks["remap"] = append(mks["remap"], remapMk)
			}
			for _, p := range dagZooPolicies {
				best := 0
				for i, v := range mks[p] {
					if v < mks[p][best] {
						best = i
					}
				}
				aggs[heuristics[best]+"/"+p].wins++
			}
		}

		n := float64(cfg.Trials)
		for _, h := range heuristics {
			for _, p := range dagZooPolicies {
				a := aggs[h+"/"+p]
				cls.Cells = append(cls.Cells, DagZooCell{
					Heuristic: h, Policy: p,
					MeanMk: a.mk / n, MeanSLR: a.slr / n, MeanUtil: a.util / n,
					Wins: a.wins,
				})
			}
		}
		out = append(out, cls)
	}
	return out, nil
}

// dagZooTrial runs one heuristic through both policies on one DAG: plan,
// execute the plan under a mid-run slowdown of the plan's busiest node
// (static), then re-plan the unstarted tasks around the degradation with the
// started tasks pinned as advance reservations (remap).
func dagZooTrial(s *core.Scheduler, wf *core.Workflow, resources []*topology.Node,
	h listsched.Heuristic, slowFactor float64) (staticMk, remapMk, util float64, err error) {
	ctx := listsched.NewContext(s, wf, resources)
	res, err := h.Schedule(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := listsched.CheckResult(ctx, res); err != nil {
		return 0, 0, 0, fmt.Errorf("plan: %w", err)
	}

	// Degrade the plan's busiest resource halfway through.
	busiest := 0
	for k, tl := range res.Timelines {
		if tl.Busy() > res.Timelines[busiest].Busy() {
			busiest = k
		}
	}
	pert := listsched.Perturbation{Node: resources[busiest], At: res.Makespan / 2, Factor: slowFactor}
	actual, staticMk, err := listsched.ExecuteStatic(ctx, res, pert)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("static execution: %w", err)
	}

	// Remap: tasks started before the perturbation keep their executed slots
	// (as advance reservations on a fresh context); the rest re-schedule with
	// the degradation visible to the cost model.
	rctx := listsched.NewContext(s, wf, resources)
	rctx.NotBefore = pert.At
	rctx.SlowNode = pert.Node
	rctx.SlowFactor = slowFactor
	ri := make(map[*topology.Node]int, len(resources))
	for k, r := range resources {
		ri[r] = k
	}
	for i, a := range actual {
		if a.Start >= pert.At {
			continue
		}
		rctx.Done[i] = true
		rctx.Assign[i] = a
		if err := rctx.Reserve(ri[a.Node], a.Start, a.Finish-a.Start, listsched.SlotLabel(i)); err != nil {
			return 0, 0, 0, fmt.Errorf("remap pin %d: %w", i, err)
		}
	}
	rres, err := h.Schedule(rctx)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("remap: %w", err)
	}
	if err := listsched.CheckResult(rctx, rres); err != nil {
		return 0, 0, 0, fmt.Errorf("remap: %w", err)
	}
	return staticMk, rres.Makespan, res.Utilization(), nil
}

// DagZooTable renders the leaderboard as one flat table.
func DagZooTable(classes []DagZooClass) *Table {
	t := &Table{Header: []string{"class", "tasks", "heuristic", "policy", "mean-makespan(s)", "slr", "util", "wins"}}
	for _, c := range classes {
		for _, cell := range c.Cells {
			t.Add(c.Label, fmt.Sprintf("%d", c.Tasks), cell.Heuristic, cell.Policy,
				Secs(cell.MeanMk), fmt.Sprintf("%.2f", cell.MeanSLR),
				fmt.Sprintf("%.3f", cell.MeanUtil), fmt.Sprintf("%d", cell.Wins))
		}
	}
	return t
}

// FormatDagZoo renders the leaderboard grouped by class.
func FormatDagZoo(classes []DagZooClass) string {
	return DagZooTable(classes).String()
}

// RunZoo schedules an explicit zoo spec (the gradsim -zoo flag) with one
// heuristic (the -heuristic flag) on the MacroGrid and reports per-DAG
// makespan, schedule length ratio and utilization. Every schedule passes
// the validity harness first.
func RunZoo(o Options, spec, heuristic string) (string, error) {
	seed := o.SeedOr(1)
	specs, err := listsched.ParseZoo(spec)
	if err != nil {
		return "", err
	}
	h, err := listsched.New(heuristic)
	if err != nil {
		return "", err
	}
	env := o.NewEnv(seed, topology.MacroGrid, "zoo", 0)
	s := core.NewScheduler(env.Grid, nil)
	resources := env.Grid.Nodes()
	rng := rand.New(rand.NewSource(seed))

	t := &Table{Header: []string{"dag", "tasks", "makespan(s)", "slr", "util"}}
	for _, z := range specs {
		wf, err := z.Build(rng)
		if err != nil {
			return "", err
		}
		ctx := listsched.NewContext(s, wf, resources)
		res, err := h.Schedule(ctx)
		if err != nil {
			return "", err
		}
		if err := listsched.CheckResult(ctx, res); err != nil {
			return "", err
		}
		cp := wf.CriticalPathTime(resources)
		slr := 0.0
		if cp > 0 {
			slr = res.Makespan / cp
		}
		t.Add(z.String(), fmt.Sprintf("%d", wf.Len()), Secs(res.Makespan),
			fmt.Sprintf("%.2f", slr), fmt.Sprintf("%.3f", res.Utilization()))
	}
	return fmt.Sprintf("zoo scheduling — heuristic %s on the MacroGrid (seed %d)\n\n%s",
		heuristic, seed, t.String()), nil
}

// RunDagZooSmoke is the CI determinism case: a compressed multi-seed
// leaderboard whose byte-identical output (and embedded validity checks)
// gate the determinism matrix. It runs seeds 1 and 2 unless o.Seed is set.
func RunDagZooSmoke(o Options) (string, error) {
	var out string
	for _, seed := range o.Seeds(1, 2) {
		cfg := DagZooConfig{
			Seed:       seed,
			Trials:     2,
			Zoo:        "chain:n=8,ccr=0.5;fanout:width=8,ccr=2;layered:layers=3,width=5,fanin=2,ccr=2",
			SlowFactor: 3,
		}
		classes, err := RunDagZoo(o, cfg)
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("seed %d:\n%s\n", seed, FormatDagZoo(classes))
	}
	return "CI dagzoo smoke — compressed leaderboard, validity-checked per schedule\n\n" + out, nil
}
