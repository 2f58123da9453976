package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// EMANConfig parameterizes the §3.3 workflow-scheduling demonstration.
type EMANConfig struct {
	Particles float64 // dataset size (raw particle images)
	Width     int     // parallel split of classesbymra / classalign2
	Seed      int64
}

// DefaultEMANConfig mirrors the demonstration scale. The parallel width
// exceeds the MacroGrid's IA-64 node count so a good schedule must use both
// architectures, exercising the heterogeneous binder path the paper
// validated.
func DefaultEMANConfig() EMANConfig {
	return EMANConfig{Particles: 400, Width: 24, Seed: 1}
}

// EMANResult is one strategy's outcome on the MacroGrid.
type EMANResult struct {
	Strategy  string
	Makespan  float64 // scheduler's predicted makespan
	Simulated float64 // makespan measured by executing the schedule
	IA32Used  int     // distinct IA-32 nodes used
	IA64Used  int     // distinct IA-64 nodes used
}

// RunEMAN schedules the expanded EMAN refinement workflow on the full
// MacroGrid with each heuristic, the best-of-three selection, and a random
// baseline, then executes every schedule on the emulator to validate the
// predicted makespans and the IA-32/IA-64 heterogeneity.
func RunEMAN(o Options, cfg EMANConfig) ([]EMANResult, error) {
	var results []EMANResult
	strategies := append([]string{}, core.Heuristics...)
	strategies = append(strategies, "best-of-3", "random")
	for _, strat := range strategies {
		env := o.NewEnv(cfg.Seed, topology.MacroGrid, "eman", 0)
		wfRun, err := apps.EMANWorkflow(cfg.Particles, cfg.Width)
		if err != nil {
			return nil, err
		}
		wfRun = wfRun.Expand()
		sched := (*core.Schedule)(nil)
		s := core.NewScheduler(env.Grid, nil)
		switch strat {
		case "best-of-3":
			sched, err = s.Schedule(wfRun, env.Grid.Nodes())
		case "random":
			sched, err = s.ScheduleRandom(rand.New(rand.NewSource(cfg.Seed)), wfRun, env.Grid.Nodes())
		default:
			sched, err = s.ScheduleWith(strat, wfRun, env.Grid.Nodes())
		}
		if err != nil {
			return nil, fmt.Errorf("eman %s: %w", strat, err)
		}
		ia32, ia64 := archUsage(sched)
		simulated, err := ExecuteSchedule(env, wfRun, sched)
		if err != nil {
			return nil, fmt.Errorf("eman %s execution: %w", strat, err)
		}
		results = append(results, EMANResult{
			Strategy:  strat,
			Makespan:  sched.Makespan,
			Simulated: simulated,
			IA32Used:  ia32,
			IA64Used:  ia64,
		})
	}
	return results, nil
}

// archUsage counts distinct nodes per architecture in a schedule.
func archUsage(s *core.Schedule) (ia32, ia64 int) {
	seen := map[string]topology.Arch{}
	for _, a := range s.Assignments {
		if a.Node != nil {
			seen[a.Node.Name()] = a.Node.Spec.Arch
		}
	}
	for _, arch := range seen {
		switch arch {
		case topology.ArchIA64:
			ia64++
		default:
			ia32++
		}
	}
	return ia32, ia64
}

// ExecuteSchedule runs a scheduled workflow on the emulator: each component
// becomes a process on its assigned node that waits for its predecessors,
// pulls their output data over the network, computes its work on the node's
// CPU, and signals completion. It returns the measured makespan.
func ExecuteSchedule(env *Env, wf *core.Workflow, sched *core.Schedule) (float64, error) {
	type compState struct {
		done   bool
		sig    *simcore.Signal
		finish float64
	}
	states := make([]*compState, wf.Len())
	for i := range states {
		states[i] = &compState{sig: simcore.NewSignal(env.Sim)}
	}
	var failure error
	for i := range wf.Components {
		i := i
		c := wf.Components[i]
		a := sched.Assignments[i]
		env.Sim.Spawn("eman:"+c.Name, func(p *simcore.Proc) {
			// Wait for predecessors, then stage their outputs.
			for _, d := range wf.Deps(i) {
				for !states[d].done {
					if err := states[d].sig.Wait(p); err != nil {
						return
					}
				}
			}
			for _, d := range wf.Deps(i) {
				src := sched.Assignments[d].Node
				if src != a.Node && wf.Components[d].OutputBytes > 0 {
					route := env.Grid.Route(src, a.Node)
					if _, err := env.Grid.Net.Transfer(p, route, wf.Components[d].OutputBytes); err != nil {
						failure = err
						return
					}
				}
			}
			if c.Model != nil {
				if _, err := a.Node.CPU.Compute(p, c.Model.FlopsAt(c.ProblemSize)); err != nil {
					failure = err
					return
				}
			}
			states[i].done = true
			states[i].finish = p.Now()
			states[i].sig.Broadcast()
		})
	}
	env.Sim.Run()
	if failure != nil {
		return 0, failure
	}
	makespan := 0.0
	for _, st := range states {
		if !st.done {
			return 0, fmt.Errorf("experiments: schedule execution deadlocked")
		}
		if st.finish > makespan {
			makespan = st.finish
		}
	}
	return makespan, nil
}

// FormatEMAN renders the strategy comparison.
func FormatEMAN(results []EMANResult) string {
	t := &Table{Header: []string{"strategy", "predicted(s)", "executed(s)", "ia32-nodes", "ia64-nodes"}}
	for _, r := range results {
		t.Add(r.Strategy, Secs(r.Makespan), Secs(r.Simulated),
			fmt.Sprintf("%d", r.IA32Used), fmt.Sprintf("%d", r.IA64Used))
	}
	return t.String()
}

// FormatEMANDag renders the Figure 2 workflow structure by level.
func FormatEMANDag(wf *core.Workflow) string {
	var b strings.Builder
	for l, comps := range wf.Levels() {
		fmt.Fprintf(&b, "level %d:", l)
		for _, ci := range comps {
			fmt.Fprintf(&b, " %s", wf.Components[ci].Name)
		}
		b.WriteString("\n")
	}
	return b.String()
}
