package metasched

import (
	"math"
	"strings"
	"testing"

	"grads/internal/apps"
	"grads/internal/binder"
	"grads/internal/cop"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// rig wires a minimal GrADS environment over the QR testbed (12 nodes,
// two sites).
type rig struct {
	sim  *simcore.Sim
	grid *topology.Grid
	gis  *gis.Service
	st   *ibp.System
	bind *binder.Binder
}

func newRig(seed int64) *rig {
	sim := simcore.New(seed)
	grid := topology.QRTestbed(sim)
	g := gis.New(sim, grid)
	g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
	for _, lib := range []string{"scalapack", "blas", "srs", "autopilot", "mpi"} {
		g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
	}
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	return &rig{sim: sim, grid: grid, gis: g, st: st, bind: binder.New(sim, g)}
}

func (r *rig) config(policy Policy) Config {
	return Config{
		Sim: r.sim, Grid: r.grid, GIS: r.gis, Storage: r.st, Binder: r.bind,
		Policy: policy, Tick: 5,
	}
}

// farmSpec builds a task-farm submission.
func farmSpec(name string, submit float64, tasks, width, minWidth int, bid, est float64) JobSpec {
	return JobSpec{
		Name: name, Kind: "task-farm", Submit: submit,
		Width: width, MinWidth: minWidth, Bid: bid, EstRuntime: est,
		Make: func(c *AppContext) (cop.COP, error) {
			f, err := apps.NewTaskFarm(c.Grid, c.RSS, c.Binder, c.Weather, tasks, 2e9, width)
			if err != nil {
				return nil, err
			}
			f.CheckpointEvery = 2
			return f, nil
		},
	}
}

// qrSpec builds a ScaLAPACK QR submission.
func qrSpec(name string, submit float64, n, width, minWidth int, bid, est float64) JobSpec {
	return JobSpec{
		Name: name, Kind: "qr", Submit: submit,
		Width: width, MinWidth: minWidth, Bid: bid, EstRuntime: est,
		Make: func(c *AppContext) (cop.COP, error) {
			q, err := apps.NewQR(c.Grid, c.RSS, c.Binder, n, 50)
			if err != nil {
				return nil, err
			}
			q.SetMaxProcs(width)
			q.CheckpointEvery = 3
			return q, nil
		},
	}
}

// TestLeaseLifecycle: grants are exclusive, overlaps rejected, release and
// shrink return nodes to the free pool.
func TestLeaseLifecycle(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())

	a, err := lm.Grant("a", nodes[:4])
	if err != nil {
		t.Fatalf("grant a: %v", err)
	}
	if _, err := lm.Grant("b", nodes[3:6]); err == nil {
		t.Fatal("overlapping grant accepted")
	}
	b, err := lm.Grant("b", nodes[4:8])
	if err != nil {
		t.Fatalf("grant b: %v", err)
	}
	if got := len(lm.Free(nodes)); got != 4 {
		t.Fatalf("free = %d, want 4", got)
	}
	lm.Release(a)
	if got := len(lm.Free(nodes)); got != 8 {
		t.Fatalf("free after release = %d, want 8", got)
	}
	freed := lm.Shrink(b, b.Nodes()[:1])
	if len(freed) != 3 || b.Size() != 1 {
		t.Fatalf("shrink freed %d (lease %d), want 3 (1)", len(freed), b.Size())
	}
	lm.Release(b)
	if lm.leasedNow != 0 {
		t.Fatalf("leased = %d after releasing everything", lm.leasedNow)
	}
	// A lease holding a down node is refused.
	nodes[0].SetDown(true)
	if _, err := lm.Grant("c", nodes[:2]); err == nil {
		t.Fatal("grant including a down node accepted")
	}
}

// TestLeaseReclaimAndUtilization: a crash pulls the node out of its lease
// via the topology watcher, and the busy-node-seconds integral reflects the
// shrink.
func TestLeaseReclaimAndUtilization(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())
	l, err := lm.Grant("a", nodes[:4])
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	r.sim.At(10, func() { r.grid.SetNodeDown(nodes[0].Name(), true) })
	r.sim.At(25, func() {})
	r.sim.Run()

	if l.Size() != 3 || lm.reclaimed != 1 {
		t.Fatalf("lease size %d reclaimed %d, want 3 and 1", l.Size(), lm.reclaimed)
	}
	for _, n := range l.Nodes() {
		if n == nodes[0] {
			t.Fatalf("crashed node %s still in the lease", n.Name())
		}
	}
	for _, n := range lm.Free(nodes) {
		if n == nodes[0] {
			t.Fatal("down node in free pool")
		}
	}
	// 4 nodes x 10s, then 3 nodes x 15s.
	if got := lm.BusyNodeSeconds(); math.Abs(got-85) > 1e-9 {
		t.Fatalf("busy node-seconds = %g, want 85", got)
	}
}

// TestOrderQueuePolicies: FIFO is submission order; priority ranks by bid
// with FIFO tie-break.
func TestOrderQueuePolicies(t *testing.T) {
	mk := func(id int, enq, bid float64) *Job {
		return &Job{ID: id, enqueuedAt: enq, Spec: JobSpec{Bid: bid}}
	}
	a, b, c := mk(1, 0, 1), mk(2, 5, 9), mk(3, 10, 9)
	prio := func(j *Job) float64 { return j.Spec.Bid }

	fifo := orderQueue(PolicyFIFO, []*Job{c, a, b}, prio)
	if fifo[0] != a || fifo[1] != b || fifo[2] != c {
		t.Fatalf("fifo order = %v,%v,%v", fifo[0].ID, fifo[1].ID, fifo[2].ID)
	}
	pr := orderQueue(PolicyPriority, []*Job{c, a, b}, prio)
	if pr[0] != b || pr[1] != c || pr[2] != a {
		t.Fatalf("priority order = %v,%v,%v", pr[0].ID, pr[1].ID, pr[2].ID)
	}
	if _, err := ParsePolicy("lottery"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestBackfillWindow: the EASY reservation is the earliest estimated
// release that satisfies the head, with the surplus as backfill room.
func TestBackfillWindow(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())
	j1 := &Job{ID: 1, Spec: JobSpec{EstRuntime: 100}}
	j2 := &Job{ID: 2, Spec: JobSpec{EstRuntime: 300}}
	j1.lease, _ = lm.Grant("j1", nodes[:4])
	j2.lease, _ = lm.Grant("j2", nodes[4:10])
	running := []*Job{j1, j2}
	s := &Scheduler{}

	if shadow, extra := s.backfillWindow(0, 2, 6, running); shadow != 100 || extra != 0 {
		t.Fatalf("window = %g,%d want 100,0", shadow, extra)
	}
	if shadow, extra := s.backfillWindow(0, 2, 5, running); shadow != 100 || extra != 1 {
		t.Fatalf("window = %g,%d want 100,1", shadow, extra)
	}
	if shadow, _ := s.backfillWindow(0, 2, 12, running); shadow != 300 {
		t.Fatalf("shadow = %g want 300", shadow)
	}
	if shadow, _ := s.backfillWindow(0, 2, 13, running); !math.IsInf(shadow, 1) {
		t.Fatalf("unsatisfiable head got shadow %g, want +Inf", shadow)
	}
	if shadow, extra := s.backfillWindow(0, 6, 6, running); shadow != 0 || extra != 0 {
		t.Fatalf("head fits now: window = %g,%d want 0,0", shadow, extra)
	}
}

// TestSchedulerRunsStreamToCompletion: an oversubscribed mixed stream (two
// farms and a QR wanting 16 of 12 nodes) all completes under backfill, with
// leases fully returned.
func TestSchedulerRunsStreamToCompletion(t *testing.T) {
	r := newRig(3)
	s, err := New(r.config(PolicyBackfill))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	mustSubmit(t, s, farmSpec("farm-a", 0, 24, 8, 1, 2, 300))
	mustSubmit(t, s, farmSpec("farm-b", 10, 8, 4, 1, 4, 150))
	mustSubmit(t, s, qrSpec("qr-c", 20, 600, 4, 2, 8, 600))
	s.Start()
	r.sim.RunUntil(50000)

	for _, j := range s.Jobs() {
		if j.State() != JobDone {
			t.Fatalf("job %s state %v (err %v)", j.Spec.Name, j.State(), j.Err())
		}
	}
	if s.Admissions() < 3 {
		t.Fatalf("admissions = %d, want >= 3", s.Admissions())
	}
	if s.leases.leasedNow != 0 {
		t.Fatalf("leaked %d leased nodes", s.leases.leasedNow)
	}
	if s.Leases().BusyNodeSeconds() <= 0 {
		t.Fatal("no lease utilization recorded")
	}
	for _, rec := range s.Records() {
		if rec.State != "done" || rec.Wait < 0 || rec.Finish <= rec.Start {
			t.Fatalf("bad record %+v", rec)
		}
	}
}

// TestStarvationPreemptionViaSRS: a high-bid QR starving behind a low-bid
// farm that owns the whole testbed forces a negotiated stop-and-shrink of
// the farm through the SRS checkpoint path; both jobs still complete.
func TestStarvationPreemptionViaSRS(t *testing.T) {
	r := newRig(4)
	cfg := r.config(PolicyPriority)
	cfg.StarveAfter = 60
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	mustSubmit(t, s, farmSpec("farm", 0, 48, 12, 1, 1, 400))
	mustSubmit(t, s, qrSpec("qr", 30, 600, 6, 4, 50, 600))
	s.Start()
	r.sim.RunUntil(100000)

	if s.PreemptOrders() < 1 || s.PreemptApplied() < 1 {
		t.Fatalf("preempt orders=%d applied=%d, want >=1 each", s.PreemptOrders(), s.PreemptApplied())
	}
	var farm, qr *Job
	for _, j := range s.Jobs() {
		switch j.Spec.Name {
		case "farm":
			farm = j
		case "qr":
			qr = j
		}
	}
	if farm.State() != JobDone || qr.State() != JobDone {
		t.Fatalf("farm=%v qr=%v (farm err %v, qr err %v)", farm.State(), qr.State(), farm.Err(), qr.Err())
	}
	if farm.preemptions < 1 {
		t.Fatalf("victim shrinks = %d, want >= 1", farm.preemptions)
	}
	if farm.rss.Migrations() < 1 {
		t.Fatal("victim never went through an SRS stop/restart")
	}
}

// TestLeaseLossRequeuesJob: crashing every node of a running job's lease
// reclaims the lease, requeues the job, and it finishes elsewhere.
func TestLeaseLossRequeuesJob(t *testing.T) {
	r := newRig(5)
	s, err := New(r.config(PolicyFIFO))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	job := mustSubmit(t, s, farmSpec("farm", 0, 16, 4, 2, 2, 300))
	s.Start()
	// The farm's mapper picks the 4 fastest nodes: the UTK cluster. Crash
	// all of them mid-run.
	r.sim.At(60, func() {
		for _, n := range r.grid.Site("UTK").Nodes() {
			r.grid.SetNodeDown(n.Name(), true)
		}
	})
	r.sim.RunUntil(100000)

	if job.State() != JobDone {
		t.Fatalf("job state %v (err %v)", job.State(), job.Err())
	}
	if job.requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", job.requeues)
	}
	if s.leases.reclaimed != 4 {
		t.Fatalf("reclaimed = %d, want 4", s.leases.reclaimed)
	}
	for _, n := range job.cop.(nodeTracker).CurNodes() {
		if n.Site().Name == "UTK" {
			t.Fatal("job restarted on a crashed UTK node")
		}
	}
}

// TestPoisonJobQuarantined: a job that loses its whole lease every time it
// runs is quarantined on its MaxRequeues-th lost lease, not before and not
// after. Quarantine is terminal and accounted: OnJobDone fires, the
// job.quarantine event is emitted, and every submitted job ends done,
// failed or quarantined while the rest of the stream completes.
func TestPoisonJobQuarantined(t *testing.T) {
	const maxRequeues = 3
	r := newRig(5)
	tel := telemetry.New()
	buf := telemetry.NewBuffer()
	tel.AddSink(buf)
	r.sim.SetTelemetry(tel)
	cfg := r.config(PolicyFIFO)
	cfg.MaxRequeues = maxRequeues
	var retired []string
	cfg.OnJobDone = func(j *Job) { retired = append(retired, j.Spec.Name) }
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	poison := mustSubmit(t, s, farmSpec("poison", 0, 400, 4, 4, 2, 300))
	mustSubmit(t, s, farmSpec("healthy", 0, 8, 4, 2, 1, 300))
	s.Start()

	// Twenty seconds into each run, crash every node of the poison job's
	// lease; the nodes come back five minutes later.
	losses := 0
	r.sim.Spawn("saboteur", func(p *simcore.Proc) {
		for poison.State() != JobQuarantined {
			if poison.State() != JobRunning {
				if p.Sleep(1) != nil {
					return
				}
				continue
			}
			if p.Sleep(20) != nil {
				return
			}
			if poison.State() != JobRunning {
				continue
			}
			if losses >= maxRequeues {
				t.Errorf("poison job running after %d lost leases", losses)
				return
			}
			nodes := poison.lease.Nodes()
			for _, n := range nodes {
				r.grid.SetNodeDown(n.Name(), true)
			}
			losses++
			r.sim.Schedule(300, func() {
				for _, n := range nodes {
					r.grid.SetNodeDown(n.Name(), false)
				}
			})
			// Every lost lease before the cap requeues the job.
			for poison.State() == JobRunning {
				if p.Sleep(1) != nil {
					return
				}
			}
			if want := losses >= maxRequeues; (poison.State() == JobQuarantined) != want {
				t.Errorf("after %d lost leases the job is %v", losses, poison.State())
			}
		}
	})
	r.sim.RunUntil(100000)
	if err := tel.Close(); err != nil {
		t.Fatalf("telemetry close: %v", err)
	}

	if poison.State() != JobQuarantined {
		t.Fatalf("poison job state %v after %d lost leases, want quarantined", poison.State(), losses)
	}
	if poison.requeues != maxRequeues || losses != maxRequeues {
		t.Fatalf("quarantined after %d requeues and %d lost leases, want %d", poison.requeues, losses, maxRequeues)
	}
	if err := poison.Err(); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("poison job error %v, want a quarantine error", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", s.Quarantined())
	}
	if len(retired) != 2 || !strings.Contains(strings.Join(retired, ","), "poison") {
		t.Fatalf("OnJobDone fired for %v, want both jobs", retired)
	}
	events := 0
	for _, e := range buf.Events() {
		if e.Type == telemetry.EvJobQuarantine && e.Name == "poison" {
			events++
		}
	}
	if events != 1 {
		t.Fatalf("%d job.quarantine events for the poison job, want 1", events)
	}
	counts := s.StateCounts()
	if terminal := counts[JobDone] + counts[JobFailed] + counts[JobQuarantined]; terminal != len(s.Jobs()) {
		t.Fatalf("state counts %v: %d terminal of %d submitted", counts, terminal, len(s.Jobs()))
	}
	if counts[JobDone] != 1 {
		t.Fatalf("state counts %v, want the healthy job done", counts)
	}
}

// TestSubmitValidation: broken specs are rejected up front.
func TestSubmitValidation(t *testing.T) {
	r := newRig(7)
	s, err := New(r.config(PolicyFIFO))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	ok := farmSpec("a", 0, 4, 2, 1, 1, 100)
	if _, err := s.Submit(ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []JobSpec{
		{},
		{Name: "a", Width: 2, Make: ok.Make}, // duplicate
		{Name: "b", Width: 0, Make: ok.Make}, // no width
		{Name: "c", Width: 2, MinWidth: 4, Make: ok.Make}, // min > width
		{Name: "d", Width: 2},                             // no factory
		{Name: "nan-bid", Width: 2, Bid: math.NaN(), Make: ok.Make},
		{Name: "inf-bid", Width: 2, Bid: math.Inf(1), Make: ok.Make},
		{Name: "neg-inf-bid", Width: 2, Bid: math.Inf(-1), Make: ok.Make},
		{Name: "nan-est", Width: 2, EstRuntime: math.NaN(), Make: ok.Make},
		{Name: "inf-est", Width: 2, EstRuntime: math.Inf(1), Make: ok.Make},
		{Name: "neg-inf-est", Width: 2, EstRuntime: math.Inf(-1), Make: ok.Make},
	}
	for i, spec := range bad {
		_, err := s.Submit(spec)
		if err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
		if spec.Name != "" && !strings.Contains(err.Error(), spec.Name) {
			t.Fatalf("bad spec %d: error %q does not name job %s", i, err, spec.Name)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without services accepted")
	}
	cfg := r.config(Policy("lottery"))
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func mustSubmit(t *testing.T, s *Scheduler, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	return j
}

// TestHoldOpenOpenLoopIntake: a HoldOpen broker survives a lull in which
// every submitted job has already finished, accepts a later submission at
// its own arrival instant (the open-loop front-door pattern), and fires
// OnIdle exactly once — after CloseIntake, when the queue drains. OnJobDone
// observes every terminal job in completion order.
func TestHoldOpenOpenLoopIntake(t *testing.T) {
	r := newRig(5)
	cfg := r.config(PolicyBackfill)
	cfg.HoldOpen = true
	var done []string
	idles := 0
	cfg.OnJobDone = func(j *Job) { done = append(done, j.Spec.Name) }
	cfg.OnIdle = func() { idles++ }
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	mustSubmit(t, s, farmSpec("early", 0, 4, 4, 1, 2, 100))
	s.Start()
	r.sim.At(30000, func() {
		if s.Remaining() != 0 {
			t.Errorf("early job still unfinished at t=30000")
		}
		if idles != 0 {
			t.Errorf("OnIdle fired while intake was still open")
		}
		mustSubmit(t, s, farmSpec("late", 30000, 4, 4, 1, 2, 100))
		s.CloseIntake()
	})
	r.sim.RunUntil(100000)

	for _, j := range s.Jobs() {
		if j.State() != JobDone {
			t.Fatalf("job %s state %v (err %v)", j.Spec.Name, j.State(), j.Err())
		}
	}
	if idles != 1 {
		t.Fatalf("OnIdle fired %d times, want 1", idles)
	}
	if len(done) != 2 || done[0] != "early" || done[1] != "late" {
		t.Fatalf("OnJobDone order = %v, want [early late]", done)
	}
	sub, start, fin := s.Jobs()[1].Times()
	if sub != 30000 || start < sub || fin <= start {
		t.Fatalf("late job times submit=%g start=%g finish=%g", sub, start, fin)
	}
}

// TestCloseIntakeAfterDrain: closing intake on an already-drained HoldOpen
// broker fires OnIdle immediately; a second close is a no-op.
func TestCloseIntakeAfterDrain(t *testing.T) {
	r := newRig(6)
	cfg := r.config(PolicyFIFO)
	cfg.HoldOpen = true
	idles := 0
	cfg.OnIdle = func() { idles++ }
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	mustSubmit(t, s, farmSpec("only", 0, 4, 4, 1, 2, 100))
	s.Start()
	r.sim.RunUntil(30000)
	if got := s.Jobs()[0].State(); got != JobDone {
		t.Fatalf("job state %v, want done", got)
	}
	if idles != 0 {
		t.Fatalf("OnIdle fired %d times before CloseIntake, want 0", idles)
	}
	s.CloseIntake()
	if idles != 1 {
		t.Fatalf("OnIdle fired %d times after CloseIntake, want 1", idles)
	}
	s.CloseIntake()
	if idles != 1 {
		t.Fatalf("second CloseIntake fired OnIdle again (%d)", idles)
	}
}

// TestNamedBrokerTelemetry: a named broker publishes its scheduler metrics
// under "metasched:<name>", leaving the bare component untouched, so a
// multi-broker fleet's gauges stay distinct.
func TestNamedBrokerTelemetry(t *testing.T) {
	r := newRig(7)
	tel := telemetry.New()
	r.sim.SetTelemetry(tel)
	cfg := r.config(PolicyFIFO)
	cfg.Name = "east"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	mustSubmit(t, s, farmSpec("job", 0, 4, 4, 1, 2, 100))
	s.Start()
	r.sim.RunUntil(30000)

	if got := tel.Counter("metasched:east", "submissions").Value(); got != 1 {
		t.Fatalf("namespaced submissions = %d, want 1", got)
	}
	if got := tel.Counter("metasched:east", "admissions").Value(); got == 0 {
		t.Fatal("namespaced admissions counter empty")
	}
	if got := tel.Counter("metasched", "submissions").Value(); got != 0 {
		t.Fatalf("bare metasched submissions = %d, want 0", got)
	}
}
