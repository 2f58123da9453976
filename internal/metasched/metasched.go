package metasched

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"grads/internal/appmgr"
	"grads/internal/binder"
	"grads/internal/cop"
	"grads/internal/faultinject"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/nws"
	"grads/internal/rescheduler"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// JobState is the lifecycle position of a submitted job.
type JobState int

const (
	JobPending JobState = iota // submitted, arrival not yet due
	JobQueued                  // in the admission queue
	JobRunning                 // on a lease, under its application manager
	JobDone
	JobFailed
	// JobQuarantined is the terminal state of a poison job: one that
	// exhausted its requeue cap without completing. Quarantine is graceful
	// degradation — the job stops consuming admission rounds and leases,
	// but stays accounted for (it is not lost).
	JobQuarantined
)

// String names the state for reports.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// AppContext is what a job's COP factory gets to build the application
// against: the shared Grid services plus the job's own private SRS instance
// (each job checkpoints under its own namespace and stop flag).
type AppContext struct {
	Grid    *topology.Grid
	Binder  *binder.Binder
	Weather *nws.Service
	RSS     *srs.RSS
}

// JobSpec describes one submission in the stream.
type JobSpec struct {
	Name   string
	Kind   string  // app class for reports ("qr", "task-farm", ...)
	Submit float64 // virtual arrival time
	// Width is the requested lease size; MinWidth (default 1) is the
	// smallest lease the job accepts — the floor for preemptive shrinking
	// and for relaxed admission of long-starved jobs.
	Width    int
	MinWidth int
	// Bid is the job's willingness to pay per node-round; the priority
	// policies rank queued jobs by it (non-positive bids rank equal).
	Bid float64
	// EstRuntime is the user's runtime estimate, used for backfill
	// reservations (never for correctness).
	EstRuntime float64
	// Make builds the job's COP against the context. Called once, at
	// arrival.
	Make func(ctx *AppContext) (cop.COP, error)
}

// Job is the broker's record of one submission.
type Job struct {
	ID   int
	Spec JobSpec

	state   JobState
	rss     *srs.RSS
	cop     cop.COP
	lease   *Lease
	mgr     *appmgr.Manager
	report  *appmgr.Report
	failErr error

	submitAt   float64
	enqueuedAt float64 // last queue entry (arrival or requeue)
	startAt    float64 // first admission
	finishAt   float64
	started    bool

	// Preemption negotiation state: pendingKeep is the shrunken lease the
	// victim's next segment must map onto, applied lazily by PoolFn once
	// the old segment has checkpointed and stopped.
	pendingKeep    []*topology.Node
	preemptPending bool
	preemptions    int // shrinks actually applied
	requeues       int
	notBefore      float64 // requeue backoff: ineligible for admission until then
}

// State returns the job's lifecycle position.
func (j *Job) State() JobState { return j.state }

// RSS returns the job's private checkpoint service (nil until arrival).
// The chaos soak audits its integrity counters through this.
func (j *Job) RSS() *srs.RSS { return j.rss }

// Err returns the terminal error of a failed job.
func (j *Job) Err() error { return j.failErr }

// Times returns the job's submit, first-admission and finish instants in
// virtual time. Start is 0 until the job was first admitted, Finish is 0
// until it reached a terminal state.
func (j *Job) Times() (submit, start, finish float64) {
	return j.submitAt, j.startAt, j.finishAt
}

// minWidth is the smallest acceptable lease.
func (j *Job) minWidth() int {
	if j.Spec.MinWidth > 0 {
		return j.Spec.MinWidth
	}
	return 1
}

// nodeTracker is implemented by COPs that expose their current execution
// segment's node set (QR and TaskFarm both do); the broker uses it to size
// stop requests.
type nodeTracker interface{ CurNodes() []*topology.Node }

// Record is one job's flattened outcome for experiment tables.
type Record struct {
	Name, Kind  string
	Width       int
	State       string
	Submit      float64
	Start       float64 // first admission
	Finish      float64
	Wait        float64 // Start - Submit
	Turnaround  float64 // Finish - Submit
	Preemptions int     // lease shrinks applied to it
	Requeues    int
	Failures    int // node failures survived by its appmgr
}

// Config wires a Scheduler to an emulated Grid.
type Config struct {
	Sim     *simcore.Sim
	Grid    *topology.Grid
	GIS     *gis.Service
	Storage *ibp.System
	Binder  *binder.Binder
	Weather *nws.Service // optional; nil degrades to static capabilities

	Policy Policy

	// Tick is the admission-round period (default 5s of virtual time).
	Tick float64
	// StarveAfter is how long the highest-priority queued job may wait
	// before the broker negotiates a preemption for it (default 600s;
	// non-positive disables preemption). FIFO never preempts.
	StarveAfter float64
	// RelaxAfter is how long a queued job waits before the broker accepts
	// a lease down to MinWidth instead of the full Width (default
	// 2*StarveAfter; non-positive disables relaxation).
	RelaxAfter float64

	// Retrier, when set, is handed to every job's application manager so
	// binds survive transient service outages.
	Retrier *resilience.Retrier
	// DetectorPeriod, when positive, runs a heartbeat failure detector over
	// all nodes and triggers an immediate admission round on every detected
	// failure or recovery (crash capacity is re-brokered at detection time,
	// not at the next tick).
	DetectorPeriod float64

	// MaxRequeues, when positive, quarantines a job as a poison job
	// (terminal, but accounted — never silently lost) on its MaxRequeues-th
	// lost lease: the first MaxRequeues-1 losses requeue it, the next one
	// retires it. Zero means unlimited requeues.
	MaxRequeues int
	// RequeueBackoff, when positive, is the base of an exponential
	// re-admission delay: after its k-th requeue a job is ineligible for
	// RequeueBackoff * 2^(k-1) seconds (capped at 64x base), so a job
	// bouncing off a sick grid stops thrashing the admission loop.
	RequeueBackoff float64
	// BrownoutSuspects, when positive, is the detector-storm threshold: an
	// admission round that sees at least this many nodes simultaneously
	// suspected down sheds its admissions entirely (leases and running
	// jobs are untouched) instead of placing work on a grid in mid-
	// collapse. Requires DetectorPeriod > 0 to have any effect.
	BrownoutSuspects int

	// OnIdle, when set, fires once when the last submitted job finishes.
	OnIdle func()

	// Name, when set, identifies this broker in a multi-broker fleet: the
	// scheduler's telemetry component becomes "metasched:<name>" so each
	// broker's queue gauges stay distinct (lease counters remain on
	// the shared "metasched" component — they are fleet-wide totals).
	// Empty keeps the single-broker component "metasched".
	Name string

	// HoldOpen keeps the admission daemon alive while the submission
	// stream is still open, even when every job submitted so far has
	// finished. Open-loop front ends (internal/frontdoor) submit jobs
	// during the run; without HoldOpen a lull in arrivals would retire
	// the daemon and strand every later submission. Call CloseIntake once
	// the last submission is in; OnIdle then fires when the queue drains.
	HoldOpen bool

	// OnJobDone, when set, fires after every job reaches a terminal state
	// (done, failed or quarantined), before any OnIdle. Front-door load
	// balancers use it to observe per-job completion latency.
	OnJobDone func(*Job)
}

// Scheduler is the metascheduler: it owns the admission queue, the lease
// ledger and the preemption negotiation over one emulated Grid.
type Scheduler struct {
	cfg    Config
	comp   string // telemetry component: "metasched" or "metasched:<name>"
	leases *LeaseManager
	resch  *rescheduler.Rescheduler
	det    *resilience.Detector

	jobs   []*Job // by ID
	byName map[string]*Job
	queued []*Job // always in admission order under the policy

	// Scratch reused by every round: the GIS pool and its free part, the
	// running jobs, their estimated lease releases, and the round's NWS
	// availability view by node name. Reuse is safe because rounds never
	// overlap (inRound), every mapper copies the pool it is given, and
	// Grant copies the nodes it leases.
	pool     []*topology.Node
	free     []*topology.Node
	running  []*Job
	releases []release
	avail    map[string]float64

	proc      *simcore.Proc
	inRound   bool
	stopped   bool
	remaining int

	admissions     int
	preemptOrders  int // stop-and-shrink orders issued
	preemptApplied int // shrinks that took effect
	violations     int // contract violations reported
	quarantined    int // poison jobs retired by the requeue cap
	brownouts      int // admission rounds shed by detector storms
}

// New creates a Scheduler. Submit jobs, then Start it before running the
// simulation.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Sim == nil || cfg.Grid == nil || cfg.GIS == nil || cfg.Storage == nil || cfg.Binder == nil {
		return nil, errors.New("metasched: Sim, Grid, GIS, Storage and Binder are required")
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyFIFO
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 5
	}
	if cfg.StarveAfter == 0 {
		cfg.StarveAfter = 600
	}
	if cfg.RelaxAfter == 0 {
		cfg.RelaxAfter = 2 * cfg.StarveAfter
	}
	comp := "metasched"
	if cfg.Name != "" {
		comp = "metasched:" + cfg.Name
	}
	s := &Scheduler{
		cfg:    cfg,
		comp:   comp,
		leases: NewLeaseManager(cfg.Sim, cfg.Grid),
		resch:  rescheduler.New(cfg.Grid, cfg.Weather),
		byName: make(map[string]*Job),
	}
	return s, nil
}

// Leases exposes the lease ledger (utilization accounting, reclaim stats).
func (s *Scheduler) Leases() *LeaseManager { return s.leases }

// Admissions returns how many admissions were performed (including
// re-admissions of requeued jobs).
func (s *Scheduler) Admissions() int { return s.admissions }

// PreemptOrders and PreemptApplied count stop-and-shrink orders issued and
// lease shrinks that actually took effect.
func (s *Scheduler) PreemptOrders() int { return s.preemptOrders }

// PreemptApplied returns how many preemptive lease shrinks were applied.
func (s *Scheduler) PreemptApplied() int { return s.preemptApplied }

// QueueDepth returns how many jobs currently wait in the queue.
func (s *Scheduler) QueueDepth() int { return len(s.queued) }

// Remaining returns how many submitted jobs have not yet finished.
func (s *Scheduler) Remaining() int { return s.remaining }

// Submit registers a job whose arrival fires at spec.Submit. Must be called
// before the simulation reaches that time.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.Name == "" {
		return nil, errors.New("metasched: job needs a name")
	}
	if s.byName[spec.Name] != nil {
		return nil, fmt.Errorf("metasched: duplicate job name %q", spec.Name)
	}
	if spec.Width <= 0 {
		return nil, fmt.Errorf("metasched: job %s needs a positive width", spec.Name)
	}
	if spec.MinWidth > spec.Width {
		return nil, fmt.Errorf("metasched: job %s MinWidth %d exceeds Width %d", spec.Name, spec.MinWidth, spec.Width)
	}
	if spec.Make == nil {
		return nil, fmt.Errorf("metasched: job %s needs a COP factory", spec.Name)
	}
	if math.IsNaN(spec.Bid) || math.IsInf(spec.Bid, 0) {
		return nil, fmt.Errorf("metasched: job %s bid %v is not a finite number", spec.Name, spec.Bid)
	}
	if math.IsNaN(spec.EstRuntime) || math.IsInf(spec.EstRuntime, 0) {
		return nil, fmt.Errorf("metasched: job %s runtime estimate %v is not a finite number", spec.Name, spec.EstRuntime)
	}
	job := &Job{ID: len(s.jobs) + 1, Spec: spec, state: JobPending, submitAt: spec.Submit}
	s.jobs = append(s.jobs, job)
	s.byName[spec.Name] = job
	s.remaining++
	s.cfg.Sim.At(spec.Submit, func() { s.arrive(job) })
	return job, nil
}

// arrive materializes the job's COP and puts it in the queue.
func (s *Scheduler) arrive(job *Job) {
	job.rss = srs.NewRSS(s.cfg.Sim, s.cfg.Storage, job.Spec.Name)
	if s.cfg.Retrier != nil {
		job.rss.SetRetrier(s.cfg.Retrier)
	}
	app, err := job.Spec.Make(&AppContext{
		Grid: s.cfg.Grid, Binder: s.cfg.Binder, Weather: s.cfg.Weather, RSS: job.rss,
	})
	if err != nil {
		s.finish(job, nil, fmt.Errorf("metasched: building %s: %w", job.Spec.Name, err))
		return
	}
	job.cop = app
	job.state = JobQueued
	job.enqueuedAt = s.cfg.Sim.Now()
	s.enqueue(job)
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Counter(s.comp, "submissions").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvJobSubmit, Comp: s.comp, Name: job.Spec.Name,
			Args: []telemetry.Arg{
				telemetry.S("kind", job.Spec.Kind),
				telemetry.I("width", job.Spec.Width),
				telemetry.F("bid", job.Spec.Bid),
			},
		})
	}
}

// Start spawns the admission daemon (and the failure detector when
// configured).
func (s *Scheduler) Start() {
	if s.cfg.DetectorPeriod > 0 {
		s.det = resilience.NewDetector(s.cfg.Sim, s.cfg.Grid, s.cfg.DetectorPeriod)
		names := make([]string, 0, len(s.cfg.Grid.Nodes()))
		for _, n := range s.cfg.Grid.Nodes() {
			names = append(names, n.Name())
		}
		s.det.Watch(names...)
		poke := func(string, float64) { s.kick() }
		s.det.OnFailure(poke)
		s.det.OnRecovery(poke)
		s.det.Start()
	}
	s.proc = s.cfg.Sim.Spawn(s.comp, func(p *simcore.Proc) {
		for !s.stopped && (s.cfg.HoldOpen || s.remaining > 0) {
			if err := p.Sleep(s.cfg.Tick); err != nil {
				return
			}
			s.round(p)
		}
	})
}

// CloseIntake declares the submission stream finished on a HoldOpen broker:
// the daemon retires once the queue drains, and OnIdle fires immediately if
// it already has. No-op on a broker that was never held open.
func (s *Scheduler) CloseIntake() {
	if !s.cfg.HoldOpen {
		return
	}
	s.cfg.HoldOpen = false
	if s.remaining == 0 && s.cfg.OnIdle != nil {
		s.cfg.OnIdle()
	}
}

// Stop halts the daemon, the detector and the crash watcher.
func (s *Scheduler) Stop() {
	s.stopped = true
	if s.proc != nil {
		s.proc.Kill()
	}
	if s.det != nil {
		s.det.Stop()
	}
	s.leases.Close()
}

// kick runs one extra admission round now (from a one-shot process, since
// rounds query GIS).
func (s *Scheduler) kick() {
	if s.stopped || s.remaining == 0 {
		return
	}
	s.cfg.Sim.Spawn(s.comp+"-kick", func(p *simcore.Proc) { s.round(p) })
}

// availFn builds the shared availability view for one round from a single
// pass over the NWS forecasts, so every decision of the round ranks nodes
// identically. The view is a map the scheduler reuses: rounds never
// overlap (inRound), and the returned closure is not used past its round.
func (s *Scheduler) availFn(nodes []*topology.Node) func(*topology.Node) float64 {
	if s.cfg.Weather == nil {
		return func(n *topology.Node) float64 { return n.CPU.Availability() }
	}
	if s.avail == nil {
		s.avail = make(map[string]float64, len(nodes))
	}
	clear(s.avail)
	for _, n := range nodes {
		s.avail[n.Name()] = s.cfg.Weather.CPUForecast(n.Name())
	}
	return func(n *topology.Node) float64 {
		if v, ok := s.avail[n.Name()]; ok {
			return v
		}
		return 1
	}
}

// round performs one admission round: shared GIS/NWS snapshot, admissions
// under the queue policy, then starvation-driven preemption.
func (s *Scheduler) round(p *simcore.Proc) {
	if s.inRound || s.stopped {
		return
	}
	s.inRound = true
	defer func() { s.inRound = false }()

	// Brownout: a detector storm (many nodes suspected at once) means the
	// free-pool view is collapsing under the round; shedding the round is
	// cheaper than placing jobs on nodes about to be reclaimed. Running
	// jobs and leases are untouched.
	if s.cfg.BrownoutSuspects > 0 && s.det != nil && s.det.SuspectedCount() >= s.cfg.BrownoutSuspects {
		s.brownouts++
		if tel := s.cfg.Sim.Telemetry(); tel != nil {
			tel.Counter(s.comp, "brownouts").Inc()
			tel.Emit(telemetry.Event{
				Type: telemetry.EvSchedBrownout, Comp: s.comp,
				Args: []telemetry.Arg{telemetry.I("suspected", s.det.SuspectedCount())},
			})
		}
		return
	}

	pool, err := s.cfg.GIS.QueryResources(p, gis.Filter{}, s.pool[:0])
	if err != nil {
		return // GIS outage: skip the round, leases stay as they are
	}
	s.pool = pool
	avail := s.availFn(pool)
	free := s.freeNodes()

	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Gauge(s.comp, "queue_depth").Set(float64(len(s.queued)))
		tel.Gauge(s.comp, "free_nodes").Set(float64(len(free)))
	}

	// Admission loop: admit heads while they fit; under backfill, let
	// safe smaller jobs around a blocked head. Jobs inside their requeue
	// backoff window are invisible to the round.
	now := p.Now()
	for {
		hi := s.nextEligible(0, now)
		if hi < 0 {
			break
		}
		head := s.queued[hi]
		if nodes := s.placement(head, free, avail); len(nodes) >= s.needWidth(head) {
			if s.admit(p, head, nodes) {
				free = s.freeNodes()
				continue
			}
		}
		if s.cfg.Policy != PolicyBackfill || s.nextEligible(hi+1, now) < 0 {
			break
		}
		shadow, extra := s.backfillWindow(now, len(free), s.needWidth(head), s.runningJobs())
		admitted := false
		for i := hi + 1; !admitted; i++ {
			var nodes []*topology.Node
			if i, nodes = s.nextBackfill(now, i, free, avail, shadow, extra); i < 0 {
				break
			}
			admitted = s.admit(p, s.queued[i], nodes)
		}
		if !admitted {
			break
		}
		free = s.freeNodes()
	}

	s.considerPreemption(now, free)
}

// freeNodes filters the round's GIS pool down to its free part, in a
// scratch slice that the next call overwrites.
func (s *Scheduler) freeNodes() []*topology.Node {
	s.free = s.leases.Free(s.free[:0], s.pool)
	return s.free
}

// placement maps a queued job over the free pool through its own mapper.
func (s *Scheduler) placement(job *Job, free []*topology.Node, avail func(*topology.Node) float64) []*topology.Node {
	return job.cop.Mapper().Map(free, avail)
}

// needWidth is the lease size the broker insists on for a job right now:
// the full request, relaxed down to MinWidth once the job has waited past
// RelaxAfter (so a shrunken Grid cannot strand a wide job forever).
func (s *Scheduler) needWidth(j *Job) int {
	w := j.Spec.Width
	if s.cfg.RelaxAfter > 0 && s.cfg.Sim.Now()-j.enqueuedAt >= s.cfg.RelaxAfter && j.minWidth() < w {
		return j.minWidth()
	}
	return w
}

// runningJobs returns the running jobs ordered by ID, in a scratch slice
// that the next call overwrites.
func (s *Scheduler) runningJobs() []*Job {
	out := s.running[:0]
	for _, j := range s.jobs {
		if j.state == JobRunning {
			out = append(out, j)
		}
	}
	s.running = out
	return out
}

// admit grants the lease and hands the job to its own application manager
// in a fresh runner process.
func (s *Scheduler) admit(p *simcore.Proc, job *Job, nodes []*topology.Node) bool {
	lease, err := s.leases.Grant(job.Spec.Name, nodes)
	if err != nil {
		return false
	}
	now := p.Now()
	job.lease = lease
	job.state = JobRunning
	if !job.started {
		job.started = true
		job.startAt = now
	}
	s.dequeue(job)
	s.admissions++
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Counter(s.comp, "admissions").Inc()
		tel.Histogram(s.comp, "wait_seconds").Observe(now - job.enqueuedAt)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvJobAdmit, Comp: s.comp, Name: job.Spec.Name,
			Args: []telemetry.Arg{
				telemetry.I("nodes", len(nodes)),
				telemetry.F("wait", now-job.enqueuedAt),
			},
		})
	}
	s.cfg.Sim.Spawn(fmt.Sprintf("job:%s", job.Spec.Name), func(rp *simcore.Proc) { s.runJob(rp, job) })
	return true
}

// runJob drives one admitted job through its application manager until it
// completes, fails, or loses its whole lease (requeue).
func (s *Scheduler) runJob(p *simcore.Proc, job *Job) {
	mgr := appmgr.New(s.cfg.Sim, s.cfg.Grid, s.cfg.Binder, s.cfg.Weather)
	mgr.RSS = job.rss
	mgr.Retrier = s.cfg.Retrier
	mgr.PoolFn = func() []*topology.Node { return s.jobPool(job) }
	job.mgr = mgr

	rep, err := mgr.Execute(p, job.cop, job.lease.Nodes())
	if err != nil && (errors.Is(err, appmgr.ErrNoResources) || faultinject.Retryable(err)) {
		// The lease was reclaimed from under the job (crashes or a
		// preemption that cut to the bone), or a transient infrastructure
		// error outlasted the retry policy (e.g. a binder outage longer
		// than the attempt budget). Either way the grid may heal: roll
		// back to the last committed checkpoint and put the job back in
		// the queue — the requeue cap quarantines it if this never stops.
		if rec, ok := job.cop.(cop.Recoverable); ok {
			rec.Rollback()
		}
		s.requeue(job, rep)
		return
	}
	s.finish(job, rep, err)
}

// jobPool re-derives a job's resource pool at each segment start: pending
// preemptive shrinks are applied here — after the previous segment has
// checkpointed and stopped, which is the only safe release point — and
// crash-reclaimed nodes have already left the lease.
func (s *Scheduler) jobPool(job *Job) []*topology.Node {
	if job.pendingKeep != nil {
		keep := job.pendingKeep
		job.pendingKeep = nil
		job.preemptPending = false
		if freed := s.leases.Shrink(job.lease, keep); len(freed) > 0 {
			job.preemptions++
			s.preemptApplied++
			if tel := s.cfg.Sim.Telemetry(); tel != nil {
				tel.Counter(s.comp, "preempt_applied").Inc()
			}
			s.kick() // re-broker the freed nodes now, not at the next tick
		}
	}
	return job.lease.Nodes()
}

// requeue puts a job that lost its lease back in the queue — unless it has
// burned through the requeue cap, in which case it is quarantined as a
// poison job. With RequeueBackoff set, each successive requeue parks the
// job for exponentially longer before it competes for admission again.
func (s *Scheduler) requeue(job *Job, rep *appmgr.Report) {
	s.leases.Release(job.lease)
	job.lease = nil
	job.rss.ClearStop()
	job.pendingKeep = nil
	job.preemptPending = false
	job.requeues++
	if rep != nil {
		job.report = rep
	}
	if s.cfg.MaxRequeues > 0 && job.requeues >= s.cfg.MaxRequeues {
		s.quarantine(job)
		return
	}
	if s.cfg.RequeueBackoff > 0 {
		exp := job.requeues - 1
		if exp > 6 {
			exp = 6 // cap at 64x base: past that the delay adds nothing
		}
		job.notBefore = s.cfg.Sim.Now() + s.cfg.RequeueBackoff*float64(int(1)<<exp)
	}
	job.state = JobQueued
	job.enqueuedAt = s.cfg.Sim.Now()
	s.enqueue(job)
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Counter(s.comp, "requeues").Inc()
	}
}

// quarantine retires a poison job: terminal like a failure, but named so
// the conservation ledger distinguishes "gave up on it deliberately" from
// "it broke" — and from "it vanished", which must never happen.
func (s *Scheduler) quarantine(job *Job) {
	now := s.cfg.Sim.Now()
	job.state = JobQuarantined
	job.finishAt = now
	job.failErr = fmt.Errorf("metasched: %s quarantined after %d requeues", job.Spec.Name, job.requeues)
	s.quarantined++
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Counter(s.comp, "quarantines").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvJobQuarantine, Comp: s.comp, Name: job.Spec.Name,
			Args: []telemetry.Arg{telemetry.I("requeues", job.requeues)},
		})
	}
	s.remaining--
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone(job)
	}
	if s.remaining == 0 && !s.cfg.HoldOpen && s.cfg.OnIdle != nil {
		s.cfg.OnIdle()
	}
}

// finish retires a job (done or failed), releases its lease and fires
// OnIdle after the last one.
func (s *Scheduler) finish(job *Job, rep *appmgr.Report, err error) {
	now := s.cfg.Sim.Now()
	s.leases.Release(job.lease)
	job.lease = nil
	if rep != nil {
		job.report = rep
	}
	job.finishAt = now
	if err != nil {
		job.state = JobFailed
		job.failErr = err
	} else {
		job.state = JobDone
	}
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Histogram(s.comp, "turnaround_seconds").Observe(now - job.submitAt)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvJobDone, Comp: s.comp, Name: job.Spec.Name,
			Args: []telemetry.Arg{
				telemetry.B("ok", err == nil),
				telemetry.F("turnaround", now-job.submitAt),
				telemetry.I("preemptions", job.preemptions),
			},
		})
	}
	s.remaining--
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone(job)
	}
	if s.remaining == 0 && !s.cfg.HoldOpen && s.cfg.OnIdle != nil {
		s.cfg.OnIdle()
	}
}

// considerPreemption checks the queue head for starvation and, when a
// high-priority job has waited past StarveAfter under a priority policy,
// negotiates a stop-and-shrink of a lower-priority running job with the
// rescheduler. The victim checkpoints through SRS, its lease shrinks at the
// next segment boundary, and the freed nodes let the starving job in.
func (s *Scheduler) considerPreemption(now float64, free []*topology.Node) {
	if s.cfg.Policy == PolicyFIFO || s.cfg.StarveAfter <= 0 {
		return
	}
	hi := s.nextEligible(0, now)
	if hi < 0 {
		return
	}
	head := s.queued[hi]
	if now-head.enqueuedAt < s.cfg.StarveAfter {
		return
	}
	need := s.needWidth(head) - len(free)
	if need <= 0 {
		return // head is blocked on shape (e.g. same-site), not capacity
	}
	headRank := bidRank(head)
	var victims []*rescheduler.Preemptee
	for _, j := range s.runningJobs() {
		if j.preemptPending || j.lease == nil || bidRank(j) >= headRank {
			continue
		}
		victims = append(victims, &rescheduler.Preemptee{
			Name:     j.Spec.Name,
			App:      j.cop.Model(),
			Nodes:    j.lease.Nodes(),
			MinNodes: j.minWidth(),
			Priority: bidRank(j),
		})
	}
	if plan := s.resch.PlanPreemption(victims, need); plan != nil {
		s.orderShrink(s.byName[plan.Victim.Name], plan.Keep, head.Spec.Name)
	}
}

// orderShrink issues the SRS stop order that executes a negotiated shrink.
func (s *Scheduler) orderShrink(victim *Job, keep []*topology.Node, beneficiary string) {
	if victim == nil || victim.state != JobRunning || victim.preemptPending {
		return
	}
	victim.pendingKeep = keep
	victim.preemptPending = true
	s.preemptOrders++
	expected := victim.lease.Size()
	if tr, ok := victim.cop.(nodeTracker); ok && len(tr.CurNodes()) > 0 {
		expected = len(tr.CurNodes())
	}
	victim.rss.RequestStop(expected)
	if tel := s.cfg.Sim.Telemetry(); tel != nil {
		tel.Counter(s.comp, "preempt_orders").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvJobPreempt, Comp: s.comp, Name: victim.Spec.Name,
			Args: []telemetry.Arg{
				telemetry.S("for", beneficiary),
				telemetry.I("keep", len(keep)),
			},
		})
	}
}

// Quarantined returns how many poison jobs the requeue cap retired.
func (s *Scheduler) Quarantined() int { return s.quarantined }

// Brownouts returns how many admission rounds were shed by detector
// storms.
func (s *Scheduler) Brownouts() int { return s.brownouts }

// StateCounts tallies every submitted job by lifecycle state, indexed by
// JobState — the conservation ledger the chaos soak checks each tick: the
// counts must always sum to the number of submissions, whatever faults are
// in flight. It recounts from the jobs on every call, so the ledger checks
// the job states themselves rather than a tally kept beside them.
func (s *Scheduler) StateCounts() [JobQuarantined + 1]int {
	var out [JobQuarantined + 1]int
	for _, j := range s.jobs {
		out[j.state]++
	}
	return out
}

// Jobs returns every submitted job, by ID. The slice is the scheduler's
// own: callers must not modify it or keep it across a Submit.
func (s *Scheduler) Jobs() []*Job { return s.jobs }

// Records flattens every job's outcome, ordered by ID.
func (s *Scheduler) Records() []Record {
	out := make([]Record, 0, len(s.jobs))
	for _, j := range s.jobs {
		r := Record{
			Name: j.Spec.Name, Kind: j.Spec.Kind, Width: j.Spec.Width,
			State:  j.state.String(),
			Submit: j.submitAt, Start: j.startAt, Finish: j.finishAt,
			Preemptions: j.preemptions, Requeues: j.requeues,
		}
		if j.started {
			r.Wait = j.startAt - j.submitAt
		}
		if j.state == JobDone || j.state == JobFailed || j.state == JobQuarantined {
			r.Turnaround = j.finishAt - j.submitAt
		}
		if j.report != nil {
			r.Failures = j.report.Failures
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
