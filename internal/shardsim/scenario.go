package shardsim

import (
	"fmt"
	"math/rand"

	"grads/internal/netsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Trace event types of the multi-site scenario (dotted component.verb style,
// see telemetry.EventType).
const (
	evStageDone telemetry.EventType = "stage.done"
	evJobReq    telemetry.EventType = "job.requeue"
	evHaloSend  telemetry.EventType = "halo.send"
	evHaloRecv  telemetry.EventType = "halo.recv"
	evHaloAck   telemetry.EventType = "halo.ack"
	evCkptSend  telemetry.EventType = "ckpt.send"
	evCkptAck   telemetry.EventType = "ckpt.ack"
	evLeaseDeny telemetry.EventType = "lease.deny"
)

// Cross-site message kinds of the multi-site scenario.
const (
	kindHalo = iota + 1
	kindHaloAck
	kindCkpt
	kindCkptAck
	kindLeaseReq
	kindLeaseGrant
	kindLeaseDeny
	kindLeaseRelease
	kindCrash
)

// ScenarioConfig sizes the seeded multi-site workload the shard-equivalence
// harness and the scale experiment run: per-site open-loop job streams with
// LAN input staging (netsim flows), an MPI-style halo-exchange ring, SRS-style
// checkpoint replication to a buddy site, metascheduler-style lease traffic
// against a broker at site 0, and chaos crash commands landing on remote
// shards. Every random draw comes from per-site (or the chaos coordinator's)
// RNGs, never from a kernel's, so behavior is identical under any shard
// placement.
type ScenarioConfig struct {
	Sites        int
	NodesPerSite int
	Seed         int64
	Shards       int
	SharedFabric bool // pre-sharding baseline fabric; see Config.SharedFabric
	Trace        bool // collect per-site telemetry for the merged trace

	Jobs        int     // jobs per site
	ArrivalRate float64 // job arrivals per second per site
	WorkMeanGF  float64 // mean job size in Gflop
	StageKB     float64 // input staged over the site LAN per job
	Stagers     int     // staging processes per site

	HaloRounds int     // ring exchanges per site (site i -> i+1 mod S)
	HaloPeriod float64 // seconds between exchanges
	HaloKB     float64

	CkptRounds int // checkpoint replications to the buddy site
	CkptPeriod float64
	CkptKB     float64

	LeaseRounds  int // lease requests per non-broker site
	LeasePeriod  float64
	LeaseHold    float64 // mean hold before release
	BrokerTokens int     // broker grant pool (site 0)

	Crashes       int     // chaos crash commands (remote sites only)
	CrashNodes    int     // nodes taken down per command
	CrashDowntime float64 // mean downtime
	CrashSpread   float64 // commands drawn uniformly in (0, CrashSpread]

	WANLatencyMS float64 // uniform pairwise WAN latency (the lookahead)
	WANBW        float64 // bytes/s per directed site pair
	LANBW        float64 // bytes/s per site LAN
	LANLatency   float64
}

// ChaosSmokeConfig is the seeded chaos workload of the shard-equivalence
// suite: a small grid with node crashes landing on remote shards.
func ChaosSmokeConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Sites: 6, NodesPerSite: 24, Seed: seed, Shards: 1, Trace: true,
		Jobs: 40, ArrivalRate: 0.5, WorkMeanGF: 40, StageKB: 512, Stagers: 3,
		HaloRounds: 20, HaloPeriod: 4, HaloKB: 64,
		CkptRounds: 10, CkptPeriod: 8, CkptKB: 1024,
		LeaseRounds: 8, LeasePeriod: 10, LeaseHold: 6, BrokerTokens: 3,
		Crashes: 8, CrashNodes: 6, CrashDowntime: 15, CrashSpread: 60,
		WANLatencyMS: 30, WANBW: 1.25e6, LANBW: 125e6, LANLatency: 100e-6,
	}
}

// ContentionSmokeConfig is the seeded contention workload: a flash crowd of
// jobs against few nodes and a starved lease broker, no faults.
func ContentionSmokeConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Sites: 8, NodesPerSite: 8, Seed: seed, Shards: 1, Trace: true,
		Jobs: 60, ArrivalRate: 4, WorkMeanGF: 60, StageKB: 2048, Stagers: 2,
		HaloRounds: 12, HaloPeriod: 3, HaloKB: 256,
		CkptRounds: 6, CkptPeriod: 9, CkptKB: 4096,
		LeaseRounds: 16, LeasePeriod: 2, LeaseHold: 5, BrokerTokens: 2,
		WANLatencyMS: 11, WANBW: 1.25e6, LANBW: 12.5e6, LANLatency: 100e-6,
	}
}

// SoakSmokeConfig is the seeded mixed workload with every traffic class and
// chaos on; RunScenario's invariant sweep must come back clean on it.
func SoakSmokeConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Sites: 10, NodesPerSite: 16, Seed: seed, Shards: 1, Trace: true,
		Jobs: 30, ArrivalRate: 1, WorkMeanGF: 50, StageKB: 768, Stagers: 2,
		HaloRounds: 15, HaloPeriod: 5, HaloKB: 128,
		CkptRounds: 8, CkptPeriod: 7, CkptKB: 2048,
		LeaseRounds: 10, LeasePeriod: 6, LeaseHold: 4, BrokerTokens: 4,
		Crashes: 10, CrashNodes: 10, CrashDowntime: 12, CrashSpread: 70,
		WANLatencyMS: 30, WANBW: 1.25e6, LANBW: 125e6, LANLatency: 100e-6,
	}
}

// ScaleConfig is the 10k-node synthetic topology of the scaling-curve
// experiment and BENCH_shard: 16 mega-sites of 640 nodes (10240 total) under
// a staging-heavy job stream, so flow churn dominates and the per-site
// fabrics' elimination of the global all-flows scans carries the speedup.
func ScaleConfig(seed int64) ScenarioConfig {
	return ScenarioConfig{
		Sites: 16, NodesPerSite: 640, Seed: seed, Shards: 1,
		Jobs: 1200, ArrivalRate: 25, WorkMeanGF: 30, StageKB: 8192, Stagers: 384,
		HaloRounds: 24, HaloPeriod: 2, HaloKB: 256,
		CkptRounds: 12, CkptPeriod: 4, CkptKB: 4096,
		LeaseRounds: 20, LeasePeriod: 2.5, LeaseHold: 3, BrokerTokens: 6,
		Crashes: 12, CrashNodes: 64, CrashDowntime: 10, CrashSpread: 45,
		WANLatencyMS: 30, WANBW: 12.5e6, LANBW: 125e6, LANLatency: 100e-6,
	}
}

// Result aggregates a scenario run. Every field except the cluster handle is
// derived from virtual-time state, so it is identical across shard counts on
// the per-site fabric.
type Result struct {
	Shards       int
	ForcedOracle bool
	FinalTime    float64
	Rounds       uint64
	Delivered    uint64
	Events       uint64

	JobsDone     int
	JobsRequeued int
	StagedMB     float64
	HaloSent     int
	HaloAcked    int
	CkptSent     int
	CkptAcked    int
	LeaseGranted int
	LeaseDenied  int
	CrashCmds    int
	Recoveries   int

	Violations []string

	cluster *Cluster
}

// MergedTrace returns the canonical merged JSONL trace (empty without
// ScenarioConfig.Trace).
func (r *Result) MergedTrace() []byte { return r.cluster.MergedTrace() }

// ReplayInto re-emits the merged trace through an external telemetry hub.
func (r *Result) ReplayInto(tel *telemetry.Telemetry) { r.cluster.ReplayInto(tel) }

// siteState is the scenario's per-site mutable state, owned by the site's
// shard.
type siteState struct {
	s   *Site
	cfg ScenarioConfig

	flops   []float64 // per node, from topology.SyntheticSite
	down    []bool
	running []int64 // job id per node, -1 when idle
	doneEv  []simcore.Event
	queue   []int64
	stageCh *simcore.Chan
	staged  int
	jobWork []float64 // per job, Gflop

	jobsDone     int
	jobsRequeued int
	stagedBytes  float64
	haloSent     int
	haloAcked    int
	ckptSent     int
	ckptAcked    int
	leaseGranted int
	leaseDenied  int
	leaseReqs    int
	recoveries   int

	// broker state (site 0 only)
	tokens    int
	crashCmds int
}

// RunScenario builds the workload on a Cluster, runs it to completion and
// sweeps the end-of-run invariants (job conservation, ack/sent matching,
// broker token conservation). It is the entry point for the differential
// tests, the scale experiment and BENCH_shard.
func RunScenario(cfg ScenarioConfig) *Result {
	if cfg.Stagers < 1 {
		cfg.Stagers = 1
	}
	cl := NewCluster(Config{Shards: cfg.Shards, Seed: cfg.Seed, SharedFabric: cfg.SharedFabric, Trace: cfg.Trace})
	for i := 0; i < cfg.Sites; i++ {
		cl.AddSite(fmt.Sprintf("site%02d", i), cfg.LANBW, cfg.LANLatency)
	}
	for i := 0; i < cfg.Sites; i++ {
		for j := i + 1; j < cfg.Sites; j++ {
			cl.Connect(i, j, cfg.WANBW, cfg.WANLatencyMS/1e3)
		}
	}
	cl.Finalize()

	states := make([]*siteState, cfg.Sites)
	for i, s := range cl.Sites() {
		states[i] = newSiteState(s, cfg)
	}
	for _, st := range states {
		st.install()
	}
	if cfg.Crashes > 0 && cfg.Sites > 1 {
		states[0].installChaos()
	}

	final := cl.Run()

	r := &Result{
		Shards:       cl.Shards(),
		ForcedOracle: cl.ForcedOracle(),
		FinalTime:    final,
		Rounds:       cl.Rounds(),
		Delivered:    cl.Delivered(),
		Events:       cl.EventsFired(),
		cluster:      cl,
	}
	for _, st := range states {
		r.JobsDone += st.jobsDone
		r.JobsRequeued += st.jobsRequeued
		r.StagedMB += st.stagedBytes / 1e6
		r.HaloSent += st.haloSent
		r.HaloAcked += st.haloAcked
		r.CkptSent += st.ckptSent
		r.CkptAcked += st.ckptAcked
		r.LeaseGranted += st.leaseGranted
		r.LeaseDenied += st.leaseDenied
		r.CrashCmds += st.crashCmds
		r.Recoveries += st.recoveries
	}
	r.Violations = checkInvariants(cfg, states, r)
	return r
}

// checkInvariants sweeps the conservation laws the scenario must satisfy at
// quiescence regardless of fault schedule or shard count.
func checkInvariants(cfg ScenarioConfig, states []*siteState, r *Result) []string {
	var v []string
	if want := cfg.Sites * cfg.Jobs; r.JobsDone != want {
		v = append(v, fmt.Sprintf("job conservation: %d done, want %d", r.JobsDone, want))
	}
	if r.HaloAcked != r.HaloSent {
		v = append(v, fmt.Sprintf("halo acks: %d acked, %d sent", r.HaloAcked, r.HaloSent))
	}
	if r.CkptAcked != r.CkptSent {
		v = append(v, fmt.Sprintf("ckpt acks: %d acked, %d sent", r.CkptAcked, r.CkptSent))
	}
	if states[0].tokens != cfg.BrokerTokens {
		v = append(v, fmt.Sprintf("broker tokens: %d free at end, want %d", states[0].tokens, cfg.BrokerTokens))
	}
	reqs := 0
	for _, st := range states {
		reqs += st.leaseReqs
	}
	if r.LeaseGranted+r.LeaseDenied != reqs {
		v = append(v, fmt.Sprintf("lease outcomes: %d grant + %d deny != %d requests",
			r.LeaseGranted, r.LeaseDenied, reqs))
	}
	for _, st := range states {
		for n, down := range st.down {
			if down {
				v = append(v, fmt.Sprintf("site %d node %d still down at quiescence", st.s.Idx, n))
				break
			}
		}
		if len(st.queue) != 0 {
			v = append(v, fmt.Sprintf("site %d: %d jobs stranded in queue", st.s.Idx, len(st.queue)))
		}
	}
	return v
}

func newSiteState(s *Site, cfg ScenarioConfig) *siteState {
	st := &siteState{
		s: s, cfg: cfg,
		flops:   make([]float64, cfg.NodesPerSite),
		down:    make([]bool, cfg.NodesPerSite),
		running: make([]int64, cfg.NodesPerSite),
		doneEv:  make([]simcore.Event, cfg.NodesPerSite),
		stageCh: simcore.NewChan(s.Sim),
		jobWork: make([]float64, cfg.Jobs),
		tokens:  cfg.BrokerTokens,
	}
	for i, sp := range topology.SyntheticSite(s.Name, cfg.NodesPerSite) {
		st.flops[i] = sp.Flops()
	}
	for i := range st.running {
		st.running[i] = -1
	}
	return st
}

// install draws the site's whole schedule from its private RNG and plants
// the initial events. Sites are installed in index order, which fixes the
// per-kernel event numbering for any placement.
func (st *siteState) install() {
	cfg, s, rng := st.cfg, st.s, st.s.RNG

	// Open-loop job arrivals with exponential gaps; work drawn per job.
	t := 0.0
	for j := 0; j < cfg.Jobs; j++ {
		t += rng.ExpFloat64() / cfg.ArrivalRate
		st.jobWork[j] = cfg.WorkMeanGF * (0.5 + rng.ExpFloat64())
		job := int64(j)
		at := t
		s.Sim.At(at, func() {
			s.Emit(telemetry.Event{Type: telemetry.EvJobSubmit, Comp: "shardjob", Name: s.Name,
				Args: []telemetry.Arg{telemetry.I("job", int(job))}})
			st.stageCh.Put(job)
		})
	}

	// Staging pool: a few processes drain the channel through the site LAN.
	for w := 0; w < cfg.Stagers; w++ {
		s.Sim.Spawn(fmt.Sprintf("%s/stager%d", s.Name, w), st.stagerBody)
	}

	// Halo-exchange ring: site i sends to i+1 mod S on a jittered period.
	if cfg.Sites > 1 {
		next := (s.Idx + 1) % cfg.Sites
		for r := 0; r < cfg.HaloRounds; r++ {
			at := float64(r+1) * cfg.HaloPeriod * (0.9 + 0.2*rng.Float64())
			round := int64(r)
			s.Sim.At(at, func() {
				st.haloSent++
				s.Emit(telemetry.Event{Type: evHaloSend, Comp: "halo", Name: s.Name,
					Args: []telemetry.Arg{telemetry.I("round", int(round))}})
				s.Send(next, kindHalo, round, 0, 0, cfg.HaloKB*1024)
			})
		}
	}

	// Checkpoint replication to the buddy site.
	if cfg.Sites > 1 {
		buddy := (s.Idx + cfg.Sites/2) % cfg.Sites
		if buddy == s.Idx {
			buddy = (s.Idx + 1) % cfg.Sites
		}
		for r := 0; r < cfg.CkptRounds; r++ {
			at := float64(r+1) * cfg.CkptPeriod * (0.85 + 0.3*rng.Float64())
			round := int64(r)
			s.Sim.At(at, func() {
				st.ckptSent++
				s.Emit(telemetry.Event{Type: evCkptSend, Comp: "srsrep", Name: s.Name,
					Args: []telemetry.Arg{telemetry.I("epoch", int(round))}})
				s.Send(buddy, kindCkpt, round, 0, 0, cfg.CkptKB*1024)
			})
		}
	}

	// Lease traffic against the broker at site 0.
	if s.Idx != 0 {
		for r := 0; r < cfg.LeaseRounds; r++ {
			at := float64(r+1) * cfg.LeasePeriod * (0.8 + 0.4*rng.Float64())
			hold := cfg.LeaseHold * (0.5 + rng.ExpFloat64())
			req := int64(s.Idx)*1_000_000 + int64(r)
			s.Sim.At(at, func() {
				st.leaseReqs++
				s.Send(0, kindLeaseReq, req, int64(hold*1e6), hold, 256)
			})
		}
	}

	s.OnMessage(func(_ *Site, m Message) { st.onMessage(m) })
}

// installChaos plants the chaos coordinator on site 0: a crash/recover
// command schedule drawn from its own RNG (distinct from every site's
// workload stream) and delivered to remote victims over the WAN.
func (st *siteState) installChaos() {
	cfg, s := st.cfg, st.s
	chaos := rand.New(rand.NewSource(cfg.Seed*31 + 7))
	for c := 0; c < cfg.Crashes; c++ {
		at := cfg.CrashSpread * (0.1 + 0.9*chaos.Float64())
		victim := 1 + chaos.Intn(cfg.Sites-1)
		nodes := 1 + chaos.Intn(cfg.CrashNodes)
		downtime := cfg.CrashDowntime * (0.5 + chaos.Float64())
		s.Sim.At(at, func() {
			st.crashCmds++
			s.Emit(telemetry.Event{Type: telemetry.EvFaultInject, Comp: "chaos", Name: s.Name,
				Args: []telemetry.Arg{telemetry.I("victim", victim), telemetry.I("nodes", nodes)}})
			s.Send(victim, kindCrash, int64(nodes), 0, downtime, 128)
		})
	}
}

// stagerBody is one staging process: it drains job ids from the channel,
// moves the input bytes over the site LAN and hands the job to the node
// queue. A negative id is the exit sentinel.
func (st *siteState) stagerBody(p *simcore.Proc) {
	s, cfg := st.s, st.cfg
	route := []*netsim.Link{s.LAN}
	for {
		v, err := st.stageCh.Get(p)
		if err != nil {
			return
		}
		job := v.(int64)
		if job < 0 {
			return
		}
		moved, err := s.Net.Transfer(p, route, cfg.StageKB*1024)
		if err != nil {
			return
		}
		st.stagedBytes += moved
		s.Emit(telemetry.Event{Type: evStageDone, Comp: "stage", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("job", int(job))}})
		st.queue = append(st.queue, job)
		st.dispatch()
		st.staged++
		if st.staged == cfg.Jobs {
			for w := 0; w < cfg.Stagers; w++ {
				st.stageCh.Put(int64(-1))
			}
		}
	}
}

// dispatch assigns queued jobs to free up nodes, fastest node first (ties to
// the lowest index), until one side runs out.
func (st *siteState) dispatch() {
	for len(st.queue) > 0 {
		best := -1
		for n := range st.flops {
			if st.down[n] || st.running[n] >= 0 {
				continue
			}
			if best < 0 || st.flops[n] > st.flops[best] {
				best = n
			}
		}
		if best < 0 {
			return
		}
		job := st.queue[0]
		st.queue = st.queue[1:]
		st.start(best, job)
	}
}

// start runs job on node, scheduling its completion.
func (st *siteState) start(node int, job int64) {
	s := st.s
	st.running[node] = job
	dur := st.jobWork[job] * 1e9 / st.flops[node]
	st.doneEv[node] = s.Sim.Schedule(dur, func() {
		st.running[node] = -1
		st.jobsDone++
		s.Emit(telemetry.Event{Type: telemetry.EvJobDone, Comp: "shardjob", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("job", int(job)), telemetry.I("node", node)}})
		st.dispatch()
	})
}

// applyCrash takes count nodes down for downtime seconds, requeueing their
// running jobs at the head of the queue, and schedules the recovery.
func (st *siteState) applyCrash(count int, downtime float64) {
	s := st.s
	var victims []int
	for n := range st.down {
		if len(victims) == count {
			break
		}
		if !st.down[n] {
			victims = append(victims, n)
		}
	}
	for _, n := range victims {
		st.down[n] = true
		if job := st.running[n]; job >= 0 {
			st.doneEv[n].Cancel()
			st.running[n] = -1
			st.jobsRequeued++
			st.queue = append([]int64{job}, st.queue...)
			s.Emit(telemetry.Event{Type: evJobReq, Comp: "shardjob", Name: s.Name,
				Args: []telemetry.Arg{telemetry.I("job", int(job)), telemetry.I("node", n)}})
		}
	}
	vs := victims
	s.Sim.Schedule(downtime, func() {
		for _, n := range vs {
			st.down[n] = false
		}
		st.recoveries++
		s.Emit(telemetry.Event{Type: telemetry.EvFaultRecover, Comp: "chaos", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("nodes", len(vs))}})
		st.dispatch()
	})
}

// onMessage dispatches one delivered cross-site message. Every mutation
// stays on the destination site's state.
func (st *siteState) onMessage(m Message) {
	s := st.s
	switch m.Kind {
	case kindHalo:
		s.Emit(telemetry.Event{Type: evHaloRecv, Comp: "halo", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("round", int(m.A)), telemetry.I("from", m.Src)}})
		s.Send(m.Src, kindHaloAck, m.A, 0, 0, 64)
	case kindHaloAck:
		st.haloAcked++
		s.Emit(telemetry.Event{Type: evHaloAck, Comp: "halo", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("round", int(m.A))}})
	case kindCkpt:
		s.Send(m.Src, kindCkptAck, m.A, 0, 0, 128)
	case kindCkptAck:
		st.ckptAcked++
		s.Emit(telemetry.Event{Type: evCkptAck, Comp: "srsrep", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("epoch", int(m.A))}})
	case kindLeaseReq:
		if st.tokens > 0 {
			st.tokens--
			s.Send(m.Src, kindLeaseGrant, m.A, 0, m.F, 256)
		} else {
			s.Send(m.Src, kindLeaseDeny, m.A, 0, 0, 256)
		}
	case kindLeaseGrant:
		st.leaseGranted++
		s.Emit(telemetry.Event{Type: telemetry.EvLeaseGrant, Comp: "lease", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("req", int(m.A))}})
		hold := m.F
		s.Sim.Schedule(hold, func() {
			s.Send(0, kindLeaseRelease, m.A, 0, 0, 128)
			s.Emit(telemetry.Event{Type: telemetry.EvLeaseRelease, Comp: "lease", Name: s.Name,
				Args: []telemetry.Arg{telemetry.I("req", int(m.A))}})
		})
	case kindLeaseDeny:
		st.leaseDenied++
		s.Emit(telemetry.Event{Type: evLeaseDeny, Comp: "lease", Name: s.Name,
			Args: []telemetry.Arg{telemetry.I("req", int(m.A))}})
	case kindLeaseRelease:
		st.tokens++
	case kindCrash:
		st.applyCrash(int(m.A), m.F)
	default:
		panic(fmt.Sprintf("shardsim: unknown message kind %d", m.Kind))
	}
}
