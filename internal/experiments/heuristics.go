package experiments

import (
	"fmt"
	"math/rand"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/topology"
)

// HeurConfig parameterizes the scheduling-heuristic ablation (the §3.1
// machinery: min-min vs max-min vs sufferage vs random, and the best-of-
// three selection the GrADS scheduler performs).
type HeurConfig struct {
	Seed   int64
	Trials int
	Layers int
	Width  int
	Fanin  int
}

// DefaultHeurConfig returns a medium-size study.
func DefaultHeurConfig() HeurConfig {
	return HeurConfig{Seed: 7, Trials: 20, Layers: 4, Width: 8, Fanin: 3}
}

// HeurResult aggregates one strategy over all trials.
type HeurResult struct {
	Strategy     string
	MeanMakespan float64
	Wins         int // trials where this strategy (alone) was the best
}

// RunHeuristics generates random layered workflows and schedules each with
// every heuristic plus a random baseline on the MacroGrid.
func RunHeuristics(o Options, cfg HeurConfig) ([]HeurResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	strategies := append(append([]string{}, core.Heuristics...), core.MCT, core.OLB, "random")
	sums := make(map[string]float64, len(strategies))
	wins := make(map[string]int, len(strategies))

	for trial := 0; trial < cfg.Trials; trial++ {
		env := o.NewEnv(cfg.Seed+int64(trial), topology.MacroGrid, "heur", 0)
		wf, err := apps.RandomWorkflow(rng, cfg.Layers, cfg.Width, cfg.Fanin)
		if err != nil {
			return nil, err
		}
		s := core.NewScheduler(env.Grid, nil)
		best, bestName := 0.0, ""
		for _, strat := range strategies {
			var sched *core.Schedule
			switch strat {
			case "random":
				sched, err = s.ScheduleRandom(rng, wf, env.Grid.Nodes())
			case core.MCT, core.OLB:
				sched, err = s.ScheduleBaseline(strat, wf, env.Grid.Nodes())
			default:
				sched, err = s.ScheduleWith(strat, wf, env.Grid.Nodes())
			}
			if err != nil {
				return nil, fmt.Errorf("heuristics %s: %w", strat, err)
			}
			sums[strat] += sched.Makespan
			if bestName == "" || sched.Makespan < best {
				best, bestName = sched.Makespan, strat
			}
		}
		wins[bestName]++
	}

	results := make([]HeurResult, 0, len(strategies))
	for _, strat := range strategies {
		results = append(results, HeurResult{
			Strategy:     strat,
			MeanMakespan: sums[strat] / float64(cfg.Trials),
			Wins:         wins[strat],
		})
	}
	return results, nil
}

// FormatHeuristics renders the ablation table.
func FormatHeuristics(results []HeurResult) string {
	t := &Table{Header: []string{"strategy", "mean-makespan(s)", "wins"}}
	for _, r := range results {
		t.Add(r.Strategy, Secs(r.MeanMakespan), fmt.Sprintf("%d", r.Wins))
	}
	return t.String()
}

// WeightResult is one (w1, w2) setting's mean makespan over the trials —
// the rank-weight ablation the paper's rank function exposes.
type WeightResult struct {
	W1, W2       float64
	MeanMakespan float64
}

// RunRankWeights sweeps the data-cost weight w2 (w1 fixed at 1) over random
// data-heavy workflows, showing when data movement matters to schedule
// quality.
func RunRankWeights(o Options, cfg HeurConfig, w2s []float64) ([]WeightResult, error) {
	if len(w2s) == 0 {
		w2s = []float64{0, 0.5, 1, 2, 4}
	}
	results := make([]WeightResult, 0, len(w2s))
	for _, w2 := range w2s {
		rng := rand.New(rand.NewSource(cfg.Seed))
		sum := 0.0
		for trial := 0; trial < cfg.Trials; trial++ {
			env := o.NewEnv(cfg.Seed+int64(trial), topology.MacroGrid, "weights", 0)
			wf, err := apps.RandomWorkflow(rng, cfg.Layers, cfg.Width, cfg.Fanin)
			if err != nil {
				return nil, err
			}
			// Make the workflow data-heavy so w2 matters.
			for _, c := range wf.Components {
				c.OutputBytes *= 50
			}
			s := core.NewScheduler(env.Grid, nil)
			s.W2 = w2
			sched, err := s.Schedule(wf, env.Grid.Nodes())
			if err != nil {
				return nil, err
			}
			// Evaluate the resulting placement under the FULL cost model
			// (data movement included) regardless of the scheduling weight.
			placement := make([]*topology.Node, wf.Len())
			for i, a := range sched.Assignments {
				placement[i] = a.Node
			}
			eval := core.NewScheduler(env.Grid, nil)
			full, err := eval.EvaluateFixed(wf, placement)
			if err != nil {
				return nil, err
			}
			sum += full.Makespan
		}
		results = append(results, WeightResult{W1: 1, W2: w2, MeanMakespan: sum / float64(cfg.Trials)})
	}
	return results, nil
}

// FormatRankWeights renders the weight sweep.
func FormatRankWeights(results []WeightResult) string {
	t := &Table{Header: []string{"w1", "w2", "mean-makespan(s)"}}
	for _, r := range results {
		t.Add(fmt.Sprintf("%.1f", r.W1), fmt.Sprintf("%.1f", r.W2), Secs(r.MeanMakespan))
	}
	return t.String()
}
