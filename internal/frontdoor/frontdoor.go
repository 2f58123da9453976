package frontdoor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"grads/internal/faultinject"
	"grads/internal/metasched"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// BrokerSpec declares one broker of the serving fleet: a metascheduler
// configuration over its own site group, plus the nominal capacity the
// balancer weighs it by (0 defaults to the grid's node count).
type BrokerSpec struct {
	Name     string
	Config   metasched.Config
	Capacity float64
}

// Config wires a FrontDoor over a broker fleet.
type Config struct {
	Sim     *simcore.Sim
	Brokers []BrokerSpec

	// Policy is the routing policy (default round-robin).
	Policy Policy
	// Classes are the QoS request classes (default DefaultClasses).
	Classes []Class

	// Seed feeds the front door's private random source — routing and QoS
	// draws never touch the kernel's source, so adding a front door to a
	// simulation leaves every other component's stream untouched.
	Seed int64

	// DropAt is the per-class pressure (observed p95 over target) past
	// which drop probability ramps linearly to 1 (default 2).
	DropAt float64
	// MinSamples is how many completions a class needs before its
	// pressure estimate is trusted (default 8).
	MinSamples int

	// Breaker parameterizes the per-class SLO breakers; the zero value
	// gets a serving-tuned default (5 consecutive breaches trip, 120 s
	// cooldown, no jitter). An open breaker sheds the class entirely
	// until its cooldown probes succeed.
	Breaker resilience.BreakerConfig

	// Quiet suppresses the front door's own telemetry (events and hub
	// metrics), so a single-broker front door produces a trace
	// byte-identical to direct metascheduler submission.
	Quiet bool
}

// broker is the front door's record of one fleet member.
type broker struct {
	name   string
	sched  *metasched.Scheduler
	routed int
	doneN  int
}

// FrontDoor is the serving entry point: it realizes a request stream onto
// the broker fleet, one routing and QoS decision per request.
type FrontDoor struct {
	cfg     Config
	sim     *simcore.Sim
	rng     *rand.Rand
	policy  Policy
	brokers []*broker
	views   []brokerView // policy-visible state, index-aligned with brokers
	classes []*classState
	clsIdx  map[string]int
	pending map[string]pendingReq

	latAll   telemetry.Histogram
	requests int
	drops    int
	offloads int
	started  bool
}

// pendingReq ties an in-flight job back to its request.
type pendingReq struct {
	class  int
	broker int
}

// New builds a FrontDoor and its broker fleet. Brokers are created here
// (held open, named, completion-hooked) but not started; Start spawns them
// and schedules the request stream.
func New(cfg Config) (*FrontDoor, error) {
	if cfg.Sim == nil {
		return nil, errors.New("frontdoor: Sim is required")
	}
	if len(cfg.Brokers) == 0 {
		return nil, errors.New("frontdoor: at least one broker is required")
	}
	if cfg.Policy == nil {
		cfg.Policy = &RoundRobin{}
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = DefaultClasses()
	}
	if cfg.DropAt <= 0 {
		cfg.DropAt = 2
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	if cfg.Breaker == (resilience.BreakerConfig{}) {
		cfg.Breaker = resilience.BreakerConfig{FailureThreshold: 5, Cooldown: 120, HalfOpenProbes: 3}
	}
	clsIdx, err := classByName(cfg.Classes)
	if err != nil {
		return nil, err
	}
	f := &FrontDoor{
		cfg:     cfg,
		sim:     cfg.Sim,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		policy:  cfg.Policy,
		clsIdx:  clsIdx,
		pending: make(map[string]pendingReq),
	}
	for _, c := range cfg.Classes {
		f.classes = append(f.classes, &classState{
			cls:     c,
			breaker: resilience.NewBreaker(cfg.Sim, "qos:"+c.Name, cfg.Breaker, nil),
		})
	}
	for i, bs := range cfg.Brokers {
		mc := bs.Config
		if mc.Sim == nil {
			mc.Sim = cfg.Sim
		}
		if mc.Sim != cfg.Sim {
			return nil, fmt.Errorf("frontdoor: broker %q runs on a different Sim", bs.Name)
		}
		mc.Name = bs.Name
		mc.HoldOpen = true
		idx, userDone := i, mc.OnJobDone
		mc.OnJobDone = func(j *metasched.Job) {
			f.onDone(idx, j)
			if userDone != nil {
				userDone(j)
			}
		}
		s, err := metasched.New(mc)
		if err != nil {
			return nil, fmt.Errorf("frontdoor: broker %q: %w", bs.Name, err)
		}
		capacity := bs.Capacity
		if capacity <= 0 {
			capacity = float64(len(mc.Grid.Nodes()))
		}
		f.brokers = append(f.brokers, &broker{name: bs.Name, sched: s})
		f.views = append(f.views, brokerView{capacity: capacity})
	}
	return f, nil
}

// Start spawns every broker and schedules the request stream: each request
// fires its routing decision at its arrival instant, and intake closes
// after the last one, so broker daemons retire exactly when the system
// drains. Start must be called before the simulation runs.
func (f *FrontDoor) Start(reqs []Request) error {
	if f.started {
		return errors.New("frontdoor: already started")
	}
	for _, r := range reqs {
		if _, ok := f.clsIdx[r.Class]; !ok {
			return fmt.Errorf("frontdoor: request %d has unknown class %q", r.ID, r.Class)
		}
	}
	f.started = true
	for _, b := range f.brokers {
		b.sched.Start()
	}
	for _, r := range reqs {
		req := r
		f.sim.At(req.At, func() { f.handle(req) })
	}
	closeAt := 0.0
	if len(reqs) > 0 {
		closeAt = reqs[len(reqs)-1].At
	}
	f.sim.At(closeAt, func() {
		for _, b := range f.brokers {
			b.sched.CloseIntake()
		}
	})
	return nil
}

// Stop halts every broker.
func (f *FrontDoor) Stop() {
	for _, b := range f.brokers {
		b.sched.Stop()
	}
}

// NumBrokers returns the fleet size.
func (f *FrontDoor) NumBrokers() int { return len(f.brokers) }

// Broker returns fleet member i's scheduler (records, lease ledger).
func (f *FrontDoor) Broker(i int) *metasched.Scheduler { return f.brokers[i].sched }

// handle makes the routing and QoS decision for one arrived request.
func (f *FrontDoor) handle(r Request) {
	ci := f.clsIdx[r.Class]
	st := f.classes[ci]
	f.requests++
	st.requests++

	// Brownout shedding: an open SLO breaker fails the class fast until
	// its cooldown probes pass.
	if !st.breaker.Allow() {
		f.drop(r, st, "breaker")
		return
	}
	// Pressure shedding: past DropAt, drop probability ramps to 1.
	pressure := st.pressure(f.cfg.MinSamples)
	if over := pressure - f.cfg.DropAt; over > 0 {
		if f.rng.Float64() < math.Min(over, 1) {
			f.drop(r, st, "pressure")
			return
		}
	}

	b := f.policy.Pick(f.views, f.rng)
	diverted := false
	if pressure > 1 && len(f.brokers) > 1 {
		// Offload: under SLO pressure, probabilistically divert away from
		// the policy's choice to the least-loaded alternative.
		if f.rng.Float64() < math.Min(pressure-1, 1) {
			if alt := f.divertTarget(b); alt >= 0 {
				b, diverted = alt, true
			}
		}
	}

	name := fmt.Sprintf("%s-%06d", r.Class, r.ID)
	if _, err := f.brokers[b].sched.Submit(st.cls.Spec(name, f.sim.Now())); err != nil {
		f.drop(r, st, "reject")
		return
	}
	f.pending[name] = pendingReq{class: ci, broker: b}
	f.views[b].outstanding++
	f.brokers[b].routed++
	if diverted {
		st.offloads++
		f.offloads++
	}
	if tel := f.tel(); tel != nil {
		tel.Counter("frontdoor", "requests").Inc()
		if diverted {
			tel.Counter("frontdoor", "offloads").Inc()
		}
		tel.Emit(telemetry.Event{
			Type: telemetry.EvReqRoute, Comp: "frontdoor", Name: name,
			Args: []telemetry.Arg{
				telemetry.S("class", r.Class),
				telemetry.S("broker", f.brokers[b].name),
				telemetry.B("offload", diverted),
			},
		})
	}
}

// drop sheds one request.
func (f *FrontDoor) drop(r Request, st *classState, reason string) {
	f.drops++
	st.drops++
	if tel := f.tel(); tel != nil {
		tel.Counter("frontdoor", "requests").Inc()
		tel.Counter("frontdoor", "drops").Inc()
		tel.Emit(telemetry.Event{
			Type: telemetry.EvReqDrop, Comp: "frontdoor", Name: fmt.Sprintf("%s-%06d", r.Class, r.ID),
			Args: []telemetry.Arg{
				telemetry.S("class", r.Class),
				telemetry.S("reason", reason),
			},
		})
	}
}

// onDone observes one terminal job: completion latency feeds the broker's
// bandit statistics, the class histogram and the class SLO breaker.
func (f *FrontDoor) onDone(bi int, job *metasched.Job) {
	name := job.Spec.Name
	pd, ok := f.pending[name]
	if !ok {
		return // not a front-door submission
	}
	delete(f.pending, name)
	submit, _, finish := job.Times()
	lat := finish - submit

	v := &f.views[bi]
	v.outstanding--
	v.n++
	v.meanLat += (lat - v.meanLat) / float64(v.n)
	f.brokers[bi].doneN++

	st := f.classes[pd.class]
	completed := job.State() == metasched.JobDone
	if completed {
		st.done++
	} else {
		st.failed++
	}
	st.hist.Observe(lat)
	f.latAll.Observe(lat)
	breach := !completed || (st.cls.Target > 0 && lat > st.cls.Target)
	if breach {
		st.breaches++
		st.breaker.Record(faultinject.ErrUnavailable)
	} else {
		st.breaker.Record(nil)
	}
	if tel := f.tel(); tel != nil {
		tel.Histogram("frontdoor", "latency_"+st.cls.Name).Observe(lat)
		tel.Emit(telemetry.Event{
			Type: telemetry.EvReqDone, Comp: "frontdoor", Name: name,
			Args: []telemetry.Arg{
				telemetry.S("class", st.cls.Name),
				telemetry.S("broker", f.brokers[bi].name),
				telemetry.B("ok", completed),
				telemetry.F("latency", lat),
			},
		})
	}
}

// tel returns the telemetry hub, or nil when detached or Quiet.
func (f *FrontDoor) tel() *telemetry.Telemetry {
	if f.cfg.Quiet {
		return nil
	}
	return f.sim.Telemetry()
}

// divertTarget picks the least-loaded (outstanding per capacity) broker
// other than exclude. Returns -1 when no broker qualifies.
func (f *FrontDoor) divertTarget(exclude int) int {
	best, bestLoad := -1, math.Inf(1)
	for i := range f.views {
		if i == exclude {
			continue
		}
		load := float64(f.views[i].outstanding) / f.views[i].capacity
		if load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// BrokerLoad is one fleet member's routing outcome.
type BrokerLoad struct {
	Name     string
	Capacity float64
	Routed   int
	Done     int
	MeanLat  float64
}

// Stats is the front door's flattened outcome for experiment tables.
type Stats struct {
	Requests int
	Drops    int
	Offloads int
	Pending  int // routed but not yet terminal
	Classes  []ClassStats
	Brokers  []BrokerLoad
	Fairness float64 // Jain index over capacity-normalized routed load
	Mean     float64 // all-requests completion latency
	P50      float64
	P95      float64
	P99      float64
}

// Stats snapshots the front door's ledger. The conservation invariant
// Requests == Drops + sum(Done+Failed) + Pending always holds.
func (f *FrontDoor) Stats() Stats {
	qs := f.latAll.Quantiles(0.5, 0.95, 0.99)
	s := Stats{
		Requests: f.requests,
		Drops:    f.drops,
		Offloads: f.offloads,
		Pending:  len(f.pending),
		Fairness: f.fairness(),
		Mean:     f.latAll.Mean(),
		P50:      qs[0],
		P95:      qs[1],
		P99:      qs[2],
	}
	for _, st := range f.classes {
		s.Classes = append(s.Classes, st.stats())
	}
	for i, b := range f.brokers {
		s.Brokers = append(s.Brokers, BrokerLoad{
			Name:     b.name,
			Capacity: f.views[i].capacity,
			Routed:   b.routed,
			Done:     b.doneN,
			MeanLat:  f.views[i].meanLat,
		})
	}
	return s
}

// fairness is the Jain index over per-broker routed load normalized by
// capacity: 1 is a perfectly even spread, 1/n a single hot broker.
func (f *FrontDoor) fairness() float64 {
	sum, sumSq := 0.0, 0.0
	for i, b := range f.brokers {
		x := float64(b.routed) / f.views[i].capacity
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(f.brokers)) * sumSq)
}
