package experiments

import (
	"fmt"

	"grads/internal/apps"
	"grads/internal/mpi"
	"grads/internal/swap"
	"grads/internal/topology"
)

// Fig4Config parameterizes the §4.2.2 process-swapping demonstration on the
// MicroGrid virtual Grid.
type Fig4Config struct {
	Bodies     int
	Iterations int
	Active     int // initial active processes (paper: 3, all at UTK)

	LoadAt    float64 // virtual time the competitive processes start
	LoadProcs float64 // paper: two competitive processes on one UTK machine

	Policy       string  // "gang" (paper behavior), "greedy", "threshold", "none"
	DaemonPeriod float64 // swapping-rescheduler check period
	Horizon      float64 // simulation cutoff
}

// DefaultFig4Config mirrors the paper's demonstration run: ~1 s iterations
// on the 550 MHz UTK nodes, two competitive processes on one UTK machine at
// t=80s, and a swap of all three working processes to UIUC shortly after.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Bodies:       5700,
		Iterations:   220,
		Active:       3,
		LoadAt:       80,
		LoadProcs:    2,
		Policy:       "gang",
		DaemonPeriod: 30,
		Horizon:      600,
	}
}

// Fig4Result carries the progress traces Figure 4 plots.
type Fig4Result struct {
	Progress  []swap.IterMark // with the swapping rescheduler
	Baseline  []swap.IterMark // same run without swapping
	SwapTimes []float64       // when the swaps completed
	Swaps     int
	LoadAt    float64
	Completed float64 // completion time with swapping (0 if horizon hit)
	BaseDone  float64 // completion time without swapping (0 if horizon hit)
}

// buildFig4Policy resolves a policy name over the world placement.
func buildFig4Policy(name string, nodes []*topology.Node) (swap.Policy, error) {
	switch name {
	case "gang":
		return swap.GangPolicy{
			Gain:   1.2,
			SiteOf: func(phys int) string { return nodes[phys].Site().Name },
		}, nil
	case "greedy":
		return swap.GreedyPolicy{Gain: 1.3}, nil
	case "threshold":
		return swap.ThresholdPolicy{Fraction: 0.7}, nil
	case "none":
		return swap.NonePolicy{}, nil
	}
	return nil, fmt.Errorf("fig4: unknown policy %q", name)
}

// fig4Run executes one N-body run under a policy on a testbed (the
// MicroGrid, or the MacroGrid slice for the cross-validation). It returns
// the swap runtime and the completion time (0 when the horizon was hit
// first).
func fig4Run(o Options, cfg Fig4Config, policy string, build GridBuilder) (*swap.Runtime, float64, error) {
	env := o.NewEnv(1, build, "nbody", 0)
	var nodes []*topology.Node
	nodes = append(nodes, env.Grid.Site("UTK").Nodes()...)
	nodes = append(nodes, env.Grid.Site("UIUC").Nodes()...)
	world := mpi.NewWorld(env.Sim, env.Grid, "nbody", nodes)

	nb := apps.NewNBody(cfg.Bodies, cfg.Iterations)
	rt := swap.NewRuntime(world, cfg.Active, nb.StateBytes(cfg.Active))

	pol, err := buildFig4Policy(policy, nodes)
	if err != nil {
		return nil, 0, err
	}
	daemon := swap.StartDaemon(env.Sim, rt, pol, cfg.DaemonPeriod, swap.NodeSpeed(nodes))

	// The paper's two competitive processes land on one UTK machine at
	// t=80 seconds.
	env.Sim.At(cfg.LoadAt, func() {
		env.Grid.Site("UTK").Nodes()[1].CPU.SetExternalLoad(cfg.LoadProcs)
	})

	rt.Run(env.Sim, nb.Body(cfg.Active), cfg.Iterations)
	env.Sim.RunUntil(cfg.Horizon)
	daemon.Stop()
	env.Sim.RunUntil(cfg.Horizon) // drain daemon shutdown

	if err := world.Err(); err != nil {
		return nil, 0, err
	}
	done := 0.0
	prog := rt.Progress()
	if len(prog) > 0 && prog[len(prog)-1].Iter == cfg.Iterations {
		done = prog[len(prog)-1].Time
	}
	return rt, done, nil
}

// RunFig4 executes the demonstration with the configured policy and the
// no-swap baseline.
func RunFig4(o Options, cfg Fig4Config) (*Fig4Result, error) {
	rt, done, err := fig4Run(o, cfg, cfg.Policy, topology.MicroGridTestbed)
	if err != nil {
		return nil, err
	}
	base, baseDone, err := fig4Run(o, cfg, "none", topology.MicroGridTestbed)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{
		Progress:  rt.Progress(),
		Baseline:  base.Progress(),
		SwapTimes: rt.SwapTimes(),
		Swaps:     rt.Swaps(),
		LoadAt:    cfg.LoadAt,
		Completed: done,
		BaseDone:  baseDone,
	}, nil
}

// Fig4Table is the progress series with and without swapping, one row per
// iteration, for -csv.
func Fig4Table(r *Fig4Result) *Table {
	base := map[int]float64{}
	for _, m := range r.Baseline {
		base[m.Iter] = m.Time
	}
	t := &Table{Header: []string{"iteration", "t_with_swap_s", "t_no_swap_s"}}
	for _, m := range r.Progress {
		t.Add(fmt.Sprint(m.Iter), fmt.Sprint(m.Time), fmt.Sprint(base[m.Iter]))
	}
	return t
}

// FormatFig4 renders the progress series (iteration vs time) the way the
// figure plots it, sampled every sampleEvery iterations, plus the events.
func FormatFig4(r *Fig4Result, sampleEvery int) string {
	if sampleEvery < 1 {
		sampleEvery = 10
	}
	t := &Table{Header: []string{"iteration", "t-with-swap(s)", "t-no-swap(s)"}}
	base := map[int]float64{}
	for _, m := range r.Baseline {
		base[m.Iter] = m.Time
	}
	for _, m := range r.Progress {
		if m.Iter%sampleEvery != 0 {
			continue
		}
		b := "-"
		if bt, ok := base[m.Iter]; ok {
			b = Secs(bt)
		}
		t.Add(fmt.Sprintf("%d", m.Iter), Secs(m.Time), b)
	}
	s := t.String()
	s += fmt.Sprintf("\nload injected at t=%.0fs; %d swap(s) completed at %v\n",
		r.LoadAt, r.Swaps, r.SwapTimes)
	if r.Completed > 0 && r.BaseDone > 0 {
		s += fmt.Sprintf("completion: %.1fs with swapping vs %.1fs without (%.0f%% faster)\n",
			r.Completed, r.BaseDone, 100*(r.BaseDone-r.Completed)/r.BaseDone)
	}
	return s
}
