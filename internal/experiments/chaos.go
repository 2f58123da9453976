package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/core"
	"grads/internal/faultinject"
	"grads/internal/gis"
	"grads/internal/netsim"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// ChaosConfig parameterizes the chaos study: the QR and EMAN workloads run
// under a seeded schedule of node crashes while the resilience layer
// (checkpoint recovery, retries, failure detector, GIS re-query) keeps them
// going, sweeping node MTBF.
type ChaosConfig struct {
	// QR workload.
	N, NB           int
	CheckpointEvery int // panels between periodic checkpoints

	// EMAN workload.
	Particles float64
	Width     int

	MTBFs          []float64 // per-node mean time between failures, seconds
	MTTR           float64   // mean repair time, seconds (<= 0: crashes permanent)
	Horizon        float64   // fault generation window, seconds
	DetectorPeriod float64   // heartbeat period, seconds
	RunCap         float64   // virtual-time cap per scenario (hang guard)
	Seed           int64
}

// DefaultChaosConfig sweeps MTBF from benign to hostile with two-minute
// repairs, on a QR size small enough that even the hostile point finishes
// inside the cap.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		N: 4000, NB: 100, CheckpointEvery: 10,
		Particles: 200, Width: 12,
		MTBFs:          []float64{3000, 1500, 750},
		MTTR:           120,
		Horizon:        4000,
		DetectorPeriod: 5,
		RunCap:         40000,
		Seed:           1,
	}
}

// ChaosResult is one (workload, MTBF) cell of the study.
type ChaosResult struct {
	Workload   string
	MTBF       float64
	Completed  bool
	Total      float64 // completion time (or the cap when not completed)
	Recoveries int     // restarts / component re-placements performed
	Injected   int     // fault injections executed
	Recovered  int     // fault recoveries executed
	Suspects   int     // failure-detector firings
	Retries    int     // service-call re-attempts by the retry layer
}

// chaosHarness bundles the per-scenario resilience stack.
type chaosHarness struct {
	injector *faultinject.Injector
	detector *resilience.Detector
	retrier  *resilience.Retrier
}

// newChaosHarness wires injector, detector and retrier over an Env: every
// grid service gets a Health handle, the detector watches every node, and
// the RSS and binder share the retry policy.
func newChaosHarness(env *Env, seed int64, detectorPeriod float64) *chaosHarness {
	in := faultinject.NewInjector(env.Sim, env.Grid)
	var weather faultinject.HealthSetter
	if env.Weather != nil {
		weather = env.Weather
	}
	faultinject.Wire(in, env.GIS, weather, env.Binder, env.Storage)
	det := resilience.NewDetector(env.Sim, env.Grid, detectorPeriod)
	det.Watch(nodeNames(env.Grid)...)
	retr := resilience.NewRetrier(env.Sim, resilience.DefaultPolicy(),
		rand.New(rand.NewSource(seed+7)))
	env.RSS.SetRetrier(retr)
	env.Binder.SetRetrier(retr)
	return &chaosHarness{injector: in, detector: det, retrier: retr}
}

func (h *chaosHarness) start() {
	h.injector.Start()
	h.detector.Start()
}

func (h *chaosHarness) stop(env *Env) {
	h.injector.Stop()
	h.detector.Stop()
	if env.Weather != nil {
		env.Weather.Stop()
	}
}

func nodeNames(g *topology.Grid) []string {
	var names []string
	for _, n := range g.Nodes() {
		names = append(names, n.Name())
	}
	return names
}

// RunChaos executes the MTBF sweep for both workloads.
func RunChaos(o Options, cfg ChaosConfig) ([]ChaosResult, error) {
	var results []ChaosResult
	for _, mtbf := range cfg.MTBFs {
		r, err := chaosQR(o, cfg, mtbf, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos qr mtbf=%g: %w", mtbf, err)
		}
		results = append(results, *r)
		e, err := chaosEMAN(o, cfg, mtbf)
		if err != nil {
			return nil, fmt.Errorf("chaos eman mtbf=%g: %w", mtbf, err)
		}
		results = append(results, *e)
	}
	return results, nil
}

// RunChaosSpec runs the QR workload under an explicit -faults schedule
// (instead of a generated one) and returns the single result plus the
// executed timeline, for the gradsim -faults flag.
func RunChaosSpec(o Options, cfg ChaosConfig, events []faultinject.Event) (*ChaosResult, string, error) {
	var timeline string
	r, err := chaosQR(o, cfg, 0, func(h *chaosHarness) {
		h.injector.Load(events)
		timeline = h.injector.Describe()
	})
	if err != nil {
		return nil, "", err
	}
	r.MTBF = 0
	return r, timeline, nil
}

// chaosQR runs the QR workload under faults. When load is nil the schedule
// is generated from mtbf/mttr; otherwise load installs the schedule.
func chaosQR(o Options, cfg ChaosConfig, mtbf float64, load func(*chaosHarness)) (*ChaosResult, error) {
	env := o.NewEnv(cfg.Seed, topology.QRTestbed, "qr", 10)
	h := newChaosHarness(env, cfg.Seed, cfg.DetectorPeriod)
	if load != nil {
		load(h)
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		h.injector.Load(faultinject.GenerateNodeFaults(rng, nodeNames(env.Grid), mtbf, cfg.MTTR, cfg.Horizon))
	}

	qr, err := apps.NewQR(env.Grid, env.RSS, env.Binder, cfg.N, cfg.NB)
	if err != nil {
		return nil, err
	}
	qr.CheckpointEvery = cfg.CheckpointEvery
	mgr := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgr.RSS = env.RSS
	mgr.Retrier = h.retrier

	h.start()
	var rep *appmgr.Report
	var execErr error
	done := false
	env.Sim.Spawn("user", func(p *simcore.Proc) {
		rep, execErr = mgr.Execute(p, qr, env.Grid.Nodes())
		done = true
		h.stop(env)
	})
	env.Sim.RunUntil(cfg.RunCap)

	res := &ChaosResult{
		Workload:  "qr",
		MTBF:      mtbf,
		Completed: done && execErr == nil,
		Total:     env.Sim.Now(),
		Injected:  h.injector.Injected(),
		Recovered: h.injector.Recovered(),
		Suspects:  h.detector.Suspects(),
		Retries:   h.retrier.Retries(),
	}
	if rep != nil {
		res.Recoveries = rep.Failures
		if res.Completed {
			res.Total = rep.Total
		}
	}
	if execErr != nil {
		return nil, execErr
	}
	if !done {
		return nil, fmt.Errorf("chaos qr: did not finish within the %g s cap", cfg.RunCap)
	}
	return res, nil
}

// chaosEMAN schedules the EMAN workflow on the MacroGrid, then executes it
// resiliently under generated node faults.
func chaosEMAN(o Options, cfg ChaosConfig, mtbf float64) (*ChaosResult, error) {
	env := o.NewEnv(cfg.Seed, topology.MacroGrid, "eman", 0)
	h := newChaosHarness(env, cfg.Seed, cfg.DetectorPeriod)
	rng := rand.New(rand.NewSource(cfg.Seed))
	h.injector.Load(faultinject.GenerateNodeFaults(rng, nodeNames(env.Grid), mtbf, cfg.MTTR, cfg.Horizon))

	wfRun, err := apps.EMANWorkflow(cfg.Particles, cfg.Width)
	if err != nil {
		return nil, err
	}
	wfRun = wfRun.Expand()
	sched, err := core.NewScheduler(env.Grid, nil).Schedule(wfRun, env.Grid.Nodes())
	if err != nil {
		return nil, err
	}

	h.start()
	makespan, recoveries, execErr := ExecuteScheduleResilient(env, wfRun, sched, h.retrier, cfg.RunCap, func() {
		h.stop(env)
	})
	if execErr != nil {
		return nil, execErr
	}
	return &ChaosResult{
		Workload:   "eman",
		MTBF:       mtbf,
		Completed:  true,
		Total:      makespan,
		Recoveries: recoveries,
		Injected:   h.injector.Injected(),
		Recovered:  h.injector.Recovered(),
		Suspects:   h.detector.Suspects(),
		Retries:    h.retrier.Retries(),
	}, nil
}

// ExecuteScheduleResilient is ExecuteSchedule with the recovery loop the
// chaos study exercises: a component whose node crashes (before or during
// its compute) re-queries the GIS for live resources, re-places itself on a
// substitute node, pays a restart cost, and re-runs; staging falls back to
// a surviving node of the producer's site when the producer crashed (its
// outputs live in site-local replicated storage). onDone fires when the
// last component finishes (or the execution fails), so the caller can stop
// its daemons. It returns the measured makespan and how many component
// re-placements were performed.
func ExecuteScheduleResilient(env *Env, wf *core.Workflow, sched *core.Schedule, retr *resilience.Retrier, runCap float64, onDone func()) (float64, int, error) {
	const restartCost = 3 // seconds to relaunch a re-placed component

	type compState struct {
		done   bool
		node   *topology.Node
		sig    *simcore.Signal
		finish float64
	}
	states := make([]*compState, wf.Len())
	for i, a := range sched.Assignments {
		states[i] = &compState{sig: simcore.NewSignal(env.Sim), node: a.Node}
	}
	var failure error
	remaining := wf.Len()
	recoveries := 0
	allDone := simcore.NewSignal(env.Sim)

	// Node crashes must reach components mid-compute: track which
	// component procs are exposed on which node and interrupt them (in
	// component order, deterministically) when that node goes down.
	procs := make([]*simcore.Proc, wf.Len())
	exposed := make([]bool, wf.Len())
	unsubscribe := env.Grid.OnNodeStateChange(func(n *topology.Node, down bool) {
		if !down {
			return
		}
		for i := range procs {
			if exposed[i] && states[i].node == n && procs[i] != nil {
				procs[i].Interrupt(netsim.ErrEndpointDown)
			}
		}
	})

	fail := func(err error) {
		if failure == nil {
			failure = err
		}
		allDone.Broadcast()
	}

	for i := range wf.Components {
		i := i
		c := wf.Components[i]
		st := states[i]
		procs[i] = env.Sim.Spawn("eman:"+c.Name, func(p *simcore.Proc) {
			for _, d := range wf.Deps(i) {
				for !states[d].done {
					if failure != nil {
						return
					}
					if err := states[d].sig.Wait(p); err != nil {
						if isEndpointLoss(err) {
							continue // our node crashed while idle; re-placed at run time
						}
						return
					}
				}
			}
			// stageAndCompute pulls the inputs and runs the compute on the
			// component's current node, with the proc registered for crash
			// interrupts while exposed.
			stageAndCompute := func() error {
				exposed[i] = true
				defer func() { exposed[i] = false }()
				for _, d := range wf.Deps(i) {
					if wf.Components[d].OutputBytes <= 0 {
						continue
					}
					src := states[d].node
					// The producer's node may have crashed since it
					// finished; its outputs live in site-local replicated
					// storage, so stage from a surviving node instead.
					if src.Down() {
						src = stagingFallback(env, src)
						if src == nil {
							return fmt.Errorf("experiments: no live staging source for %s", wf.Components[d].Name)
						}
					}
					if src == st.node {
						continue
					}
					route := env.Grid.Route(src, st.node)
					if _, err := env.Grid.Net.TransferLabeled(p, route, wf.Components[d].OutputBytes, src.Name(), st.node.Name()); err != nil {
						return err
					}
				}
				if c.Model != nil {
					if _, err := st.node.CPU.Compute(p, c.Model.FlopsAt(c.ProblemSize)); err != nil {
						return err
					}
				}
				return nil
			}

			for attempt := 0; ; attempt++ {
				if failure != nil {
					return
				}
				// Bound pathological schedules: give up after 32 re-runs.
				if attempt > 32 {
					fail(fmt.Errorf("experiments: component %s: too many re-placements", c.Name))
					return
				}
				// Re-place onto a live node when ours has crashed.
				if st.node.Down() {
					sub, err := substituteNode(p, env, retr, st.node, i)
					if err != nil {
						fail(fmt.Errorf("experiments: component %s: %w", c.Name, err))
						return
					}
					recoveries++
					emitReplace(env, c.Name, st.node.Name(), sub.Name())
					st.node = sub
					if err := p.Sleep(restartCost); err != nil {
						if isEndpointLoss(err) {
							continue
						}
						return
					}
				}
				if err := stageAndCompute(); err != nil {
					if isEndpointLoss(err) {
						continue // our node or a peer died: re-place and retry
					}
					fail(err)
					return
				}
				break
			}
			st.done = true
			st.finish = p.Now()
			st.sig.Broadcast()
			remaining--
			if remaining == 0 {
				allDone.Broadcast()
			}
		})
	}

	finished := false
	env.Sim.Spawn("eman-watch", func(p *simcore.Proc) {
		for remaining > 0 && failure == nil {
			if err := allDone.Wait(p); err != nil {
				return
			}
		}
		finished = true
		unsubscribe()
		if onDone != nil {
			onDone()
		}
	})
	env.Sim.RunUntil(runCap)

	if failure != nil {
		return 0, recoveries, failure
	}
	if !finished {
		return 0, recoveries, fmt.Errorf("experiments: resilient schedule execution did not finish within the %g s cap", runCap)
	}
	makespan := 0.0
	for _, st := range states {
		if st.finish > makespan {
			makespan = st.finish
		}
	}
	return makespan, recoveries, nil
}

// stagingFallback picks a live node to stage a crashed producer's output
// from: same site first (the replica is a LAN copy), else any live node,
// in deterministic name order.
func stagingFallback(env *Env, down *topology.Node) *topology.Node {
	var fallback *topology.Node
	for _, n := range env.Grid.Nodes() {
		if n.Down() || n == down {
			continue
		}
		if n.Site() == down.Site() {
			return n
		}
		if fallback == nil {
			fallback = n
		}
	}
	return fallback
}

// substituteNode re-queries the GIS for live resources and picks a
// replacement for a crashed node: same architecture when possible, rotated
// by the component index so concurrent re-placements spread over the pool
// instead of piling onto one node (deterministic either way).
func substituteNode(p *simcore.Proc, env *Env, retr *resilience.Retrier, down *topology.Node, comp int) (*topology.Node, error) {
	var pool []*topology.Node
	err := retr.Do(p, "gis.query", func() error {
		var qerr error
		pool, qerr = env.GIS.QueryResources(p, gis.Filter{})
		return qerr
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].Name() < pool[b].Name() })
	var sameArch []*topology.Node
	for _, n := range pool {
		if n.Spec.Arch == down.Spec.Arch {
			sameArch = append(sameArch, n)
		}
	}
	if len(sameArch) > 0 {
		return sameArch[comp%len(sameArch)], nil
	}
	if len(pool) > 0 {
		return pool[comp%len(pool)], nil
	}
	return nil, fmt.Errorf("no live resources for re-placement")
}

// isEndpointLoss reports whether an error means the component's node (or a
// transfer endpoint or route) crashed — the retryable-by-re-placement class.
// netsim wraps these sentinels with link/endpoint names, so unwrap.
func isEndpointLoss(err error) bool {
	return errors.Is(err, netsim.ErrEndpointDown) || errors.Is(err, netsim.ErrLinkDown)
}

func emitReplace(env *Env, comp, from, to string) {
	if tel := env.Sim.Telemetry(); tel != nil {
		tel.Counter("chaos", "replacements").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvAppRestart, Comp: "eman:" + comp, Name: "component-replaced",
			Args: []telemetry.Arg{telemetry.S("from", from), telemetry.S("to", to)},
		})
	}
}

// ChaosTable is the MTBF sweep in raw values, for -csv.
func ChaosTable(results []ChaosResult) *Table {
	t := &Table{Header: []string{"workload", "mtbf_s", "completed", "total_s", "recoveries", "faults_injected", "faults_recovered", "detector_suspects", "service_retries"}}
	for _, r := range results {
		t.Add(r.Workload, fmt.Sprint(r.MTBF), fmt.Sprint(r.Completed), fmt.Sprint(r.Total),
			fmt.Sprint(r.Recoveries), fmt.Sprint(r.Injected), fmt.Sprint(r.Recovered),
			fmt.Sprint(r.Suspects), fmt.Sprint(r.Retries))
	}
	return t
}

// FormatChaos renders the MTBF sweep.
func FormatChaos(results []ChaosResult) string {
	t := &Table{Header: []string{"workload", "mtbf(s)", "completed", "total(s)", "recoveries", "faults", "healed", "suspects", "retries"}}
	for _, r := range results {
		t.Add(r.Workload, Secs(r.MTBF), fmt.Sprint(r.Completed), Secs(r.Total),
			fmt.Sprint(r.Recoveries), fmt.Sprint(r.Injected), fmt.Sprint(r.Recovered),
			fmt.Sprint(r.Suspects), fmt.Sprint(r.Retries))
	}
	return t.String()
}
