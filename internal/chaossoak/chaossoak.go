// Package chaossoak is the long-horizon invariant harness of the recovery
// control plane: it runs a seeded job stream through the metascheduler on
// the QR testbed while a randomized mixed fault schedule (crashes, storms,
// link faults, service outages, checkpoint corruption) plays against the
// full resilience stack — circuit breakers, retry budgets, failure
// detector, checkpoint lineage — and sweeps a set of safety invariants
// every few seconds of virtual time.
//
// The soak is a falsifier, not a benchmark: any tick where an invariant
// fails is recorded as a Violation (and emitted as telemetry), and the
// acceptance bar is zero violations, zero lost jobs, and a byte-identical
// telemetry trace on every rerun of the same seed.
package chaossoak

import (
	"fmt"
	"math/rand"
	"sort"

	"grads/internal/binder"
	"grads/internal/faultinject"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/metasched"
	"grads/internal/nws"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Config parameterizes one soak run.
type Config struct {
	Seed int64
	Jobs int // submissions in the generated stream

	// Horizon is the fault-generation window: every fault starts inside
	// [0, Horizon) (crash repairs may spill slightly past it). RunCap is
	// the hard virtual-time stop; the stream draining before RunCap is
	// itself an invariant (liveness).
	Horizon float64
	RunCap  float64

	// MTBF/MTTR drive the background per-node crash process; the mixed
	// storm/link/service/corruption faults are layered on top.
	MTBF float64
	MTTR float64

	// TickEvery is the invariant-sweep period.
	TickEvery float64

	DetectorPeriod float64
	NWSPeriod      float64

	// Guards installs circuit breakers and retry budgets on the shared
	// retrier (the production configuration). Off, the soak still runs —
	// the comparison is the point of the no-fault benchmarks.
	Guards bool

	// NoFaults suppresses the entire fault schedule. The workload, guards
	// and invariant sweeps still run; the bare-vs-guarded no-fault
	// benchmark pair uses this to price the guard layer on the hot path.
	NoFaults bool

	// MinKernelEvents, when positive, makes the soak demand at least this
	// many kernel events by drain time (the "long enough to mean
	// something" floor). Zero disables the check.
	MinKernelEvents uint64

	// Telemetry, when set, is attached to the simulation kernel so the
	// soak emits the same JSONL stream as every other experiment.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig is the published soak point: a 2400-job stream over a
// two-virtual-day fault window with roughly 1800 injected faults, sized so
// the kernel fires over a million events before the stream drains. Hostile
// enough to exercise every recovery path, yet guaranteed (by seed) to
// drain with zero violations.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Jobs:            2400,
		Horizon:         180000,
		RunCap:          600000,
		MTBF:            1200,
		MTTR:            90,
		TickEvery:       5,
		DetectorPeriod:  5,
		NWSPeriod:       10,
		Guards:          true,
		MinKernelEvents: 1_000_000,
	}
}

// SmokeConfig is the CI point: the same fault mix compressed to a
// forty-job stream that drains in well under a second of wall time, used
// for the multi-seed smoke matrix and the byte-identical-trace check.
func SmokeConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Jobs = 40
	cfg.Horizon = 8000
	cfg.RunCap = 120000
	cfg.MinKernelEvents = 0
	return cfg
}

// Violation is one failed invariant check at one sweep.
type Violation struct {
	T         float64
	Invariant string
	Detail    string
}

// ClassStats aggregates outcomes per job class for the degradation report.
type ClassStats struct {
	Class          string
	Jobs           int
	Done           int
	Quarantined    int
	Failed         int
	MeanTurnaround float64 // over terminal jobs of the class
	MeanRequeues   float64
}

// Result is everything one soak run measured.
type Result struct {
	Seed         int64
	Spec         string // replayable fault schedule (faultinject grammar)
	KernelEvents uint64
	Elapsed      float64 // drain time (or RunCap when the stream stalled)
	Drained      bool

	Jobs        int
	Done        int
	Failed      int
	Quarantined int
	LostJobs    int      // submissions not accounted for by any terminal state
	FailedJobs  []string // "name: error" for every terminally failed job

	Admissions int
	Requeues   int
	Preempts   int
	Brownouts  int

	Injected  int
	Recovered int
	Skipped   int
	Suspects  int
	Repairs   int     // node recoveries observed by the soak's own detector
	MTTRMean  float64 // mean observed node downtime (failure->recovery, detector clock)

	Retries      int
	GaveUp       int
	BreakerOpens int
	FastFails    int
	BudgetDenied int

	CorruptDetected  int
	CorruptServed    int
	LineageFallbacks int

	Checks     int // invariant sweeps executed
	Violations []Violation
	PerClass   []ClassStats
}

// maxViolationDetails bounds the report; past this the soak only counts.
const maxViolationDetails = 64

// Run executes one soak. It is deterministic in cfg: the same Config
// produces the same Result (and, with Telemetry attached, a byte-identical
// event stream).
func Run(cfg Config) (*Result, error) {
	if cfg.Jobs <= 0 || cfg.Horizon <= 0 || cfg.RunCap <= 0 || cfg.TickEvery <= 0 {
		return nil, fmt.Errorf("chaossoak: Jobs, Horizon, RunCap and TickEvery must be positive")
	}

	sim := simcore.New(cfg.Seed)
	if cfg.Telemetry != nil {
		sim.SetTelemetry(cfg.Telemetry)
	}
	grid := topology.QRTestbed(sim)
	g := gis.New(sim, grid)
	g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
	for _, lib := range []string{"scalapack", "blas", "srs", "autopilot", "mpi"} {
		g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
	}
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	bind := binder.New(sim, g)
	var weather *nws.Service
	if cfg.NWSPeriod > 0 {
		weather = nws.Start(sim, grid, cfg.NWSPeriod)
	}

	// The shared retrier, optionally with the full guard stack.
	retr := resilience.NewRetrier(sim, resilience.DefaultPolicy(),
		rand.New(rand.NewSource(cfg.Seed+7)))
	if cfg.Guards {
		retr.SetGuards(
			resilience.NewBreakerSet(sim, resilience.DefaultBreakerConfig(),
				rand.New(rand.NewSource(cfg.Seed+11))),
			resilience.NewBudgetSet(sim, resilience.DefaultBudgetConfig()),
		)
	}
	bind.SetRetrier(retr)

	// Fault injection over every service plus the storage corruptor.
	in := faultinject.NewInjector(sim, grid)
	var weatherHS faultinject.HealthSetter
	if weather != nil {
		weatherHS = weather
	}
	faultinject.Wire(in, g, weatherHS, bind, st)
	var events []faultinject.Event
	if !cfg.NoFaults {
		events = buildSchedule(rand.New(rand.NewSource(cfg.Seed+5)), grid, cfg)
	}
	in.Load(events)

	// The soak's own detector clocks observed node downtime (MTTR as the
	// control plane perceives it, detection latency included).
	det := resilience.NewDetector(sim, grid, detectorPeriodOr(cfg))
	names := make([]string, 0, len(grid.Nodes()))
	for _, n := range grid.Nodes() {
		names = append(names, n.Name())
	}
	sort.Strings(names)
	det.Watch(names...)
	downSince := make(map[string]float64)
	repairs, downSum := 0, 0.0
	det.OnFailure(func(node string, at float64) { downSince[node] = at })
	det.OnRecovery(func(node string, at float64) {
		if t0, ok := downSince[node]; ok {
			downSum += at - t0
			repairs++
			delete(downSince, node)
		}
	})

	var sched *metasched.Scheduler
	var chk *checker
	drained := false
	drainAt := 0.0
	stopAll := func() {
		drained = true
		drainAt = sim.Now()
		in.Stop()
		det.Stop()
		if weather != nil {
			weather.Stop()
		}
		chk.stop()
		sched.Stop()
	}
	sched, err := metasched.New(metasched.Config{
		Sim: sim, Grid: grid, GIS: g, Storage: st, Binder: bind, Weather: weather,
		Policy:         metasched.PolicyBackfill,
		Tick:           5,
		StarveAfter:    300,
		RelaxAfter:     600,
		Retrier:        retr,
		DetectorPeriod: cfg.DetectorPeriod,
		MaxRequeues:    10,
		RequeueBackoff: 4,
		BrownoutSuspects: func() int {
			if cfg.DetectorPeriod > 0 {
				return 5
			}
			return 0
		}(),
		OnIdle: stopAll,
	})
	if err != nil {
		return nil, err
	}
	specs := buildStream(rand.New(rand.NewSource(cfg.Seed+3)), cfg)
	for _, s := range specs {
		if _, err := sched.Submit(s); err != nil {
			return nil, fmt.Errorf("chaossoak: submit %s: %w", s.Name, err)
		}
	}

	chk = newChecker(sim, sched, cfg.Jobs)
	chk.start(cfg.TickEvery, func() bool { return drained })

	sched.Start()
	in.Start()
	det.Start()
	sim.RunUntil(cfg.RunCap)

	// Final sweep: the invariants must also hold at rest.
	chk.sweep(sim.Now())
	if !drained {
		stuck := ""
		for _, j := range sched.Jobs() {
			st := j.State()
			if st == metasched.JobDone || st == metasched.JobFailed || st == metasched.JobQuarantined {
				continue
			}
			if stuck != "" {
				stuck += ", "
			}
			stuck += fmt.Sprintf("%s(%s)", j.Spec.Name, st)
		}
		chk.violate(sim.Now(), "liveness",
			fmt.Sprintf("%d jobs unfinished at the %g s cap: %s", sched.Remaining(), cfg.RunCap, stuck))
	}
	if cfg.MinKernelEvents > 0 && sim.EventsFired() < cfg.MinKernelEvents {
		chk.violate(sim.Now(), "scale",
			fmt.Sprintf("only %d kernel events fired, need >= %d", sim.EventsFired(), cfg.MinKernelEvents))
	}

	res := &Result{
		Seed:         cfg.Seed,
		Spec:         faultinject.FormatSpec(events),
		KernelEvents: sim.EventsFired(),
		Elapsed:      sim.Now(),
		Drained:      drained,
		Jobs:         cfg.Jobs,
		Admissions:   sched.Admissions(),
		Preempts:     sched.PreemptApplied(),
		Brownouts:    sched.Brownouts(),
		Injected:     in.Injected(),
		Recovered:    in.Recovered(),
		Skipped:      in.Skipped(),
		Suspects:     det.Suspects(),
		Repairs:      repairs,
		Retries:      retr.Retries(),
		GaveUp:       retr.GaveUp(),
		Checks:       chk.checks,
		Violations:   chk.violations,
	}
	if drained {
		res.Elapsed = drainAt
	}
	if repairs > 0 {
		res.MTTRMean = downSum / float64(repairs)
	}
	if bs := retr.Breakers(); bs != nil {
		res.BreakerOpens = bs.Opens()
		res.FastFails = bs.FastFails()
	}
	if bu := retr.Budgets(); bu != nil {
		res.BudgetDenied = bu.Denied()
	}

	counts := sched.StateCounts()
	res.Done = counts[metasched.JobDone]
	res.Failed = counts[metasched.JobFailed]
	res.Quarantined = counts[metasched.JobQuarantined]
	res.LostJobs = cfg.Jobs - res.Done - res.Failed - res.Quarantined
	if !drained {
		// Unfinished-but-tracked jobs are stalled, not lost; the liveness
		// violation above already reports them.
		res.LostJobs -= counts[metasched.JobPending] + counts[metasched.JobQueued] + counts[metasched.JobRunning]
	}
	for _, j := range sched.Jobs() {
		if r := j.RSS(); r != nil {
			res.CorruptDetected += r.CorruptDetected()
			res.CorruptServed += r.CorruptServed()
			res.LineageFallbacks += r.LineageFallbacks()
		}
		if j.State() == metasched.JobFailed && j.Err() != nil {
			res.FailedJobs = append(res.FailedJobs, fmt.Sprintf("%s: %v", j.Spec.Name, j.Err()))
		}
	}
	recs := sched.Records()
	for _, r := range recs {
		res.Requeues += r.Requeues
	}
	res.PerClass = classStats(recs)
	return res, nil
}

func detectorPeriodOr(cfg Config) float64 {
	if cfg.DetectorPeriod > 0 {
		return cfg.DetectorPeriod
	}
	return 5
}

// classStats folds the per-job records into per-class degradation rows.
func classStats(recs []metasched.Record) []ClassStats {
	byClass := make(map[string]*ClassStats)
	turn := make(map[string]float64)
	reqs := make(map[string]int)
	terminal := make(map[string]int)
	for _, r := range recs {
		c := byClass[r.Kind]
		if c == nil {
			c = &ClassStats{Class: r.Kind}
			byClass[r.Kind] = c
		}
		c.Jobs++
		reqs[r.Kind] += r.Requeues
		switch r.State {
		case "done":
			c.Done++
		case "failed":
			c.Failed++
		case "quarantined":
			c.Quarantined++
		}
		if r.Turnaround > 0 {
			turn[r.Kind] += r.Turnaround
			terminal[r.Kind]++
		}
	}
	out := make([]ClassStats, 0, len(byClass))
	for kind, c := range byClass {
		if terminal[kind] > 0 {
			c.MeanTurnaround = turn[kind] / float64(terminal[kind])
		}
		c.MeanRequeues = float64(reqs[kind]) / float64(c.Jobs)
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
