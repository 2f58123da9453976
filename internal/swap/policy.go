package swap

import (
	"sort"

	"grads/internal/simcore"
	"grads/internal/topology"
)

// Candidate describes one machine to a swap policy: its physical rank, the
// virtual rank it currently serves (-1 for inactive machines), and its
// forecast effective speed in flop/s.
type Candidate struct {
	Phys  int
	VRank int
	Speed float64
}

// Policy decides which swaps to perform given the active and inactive
// candidate sets. Implementations must not mutate the slices.
type Policy interface {
	Name() string
	Decide(active, inactive []Candidate) []Order
}

// GreedyPolicy repeatedly swaps the slowest active machine with the fastest
// inactive one while the inactive machine is at least Gain times faster
// (Gain > 1; the margin keeps marginal swaps from thrashing).
type GreedyPolicy struct {
	Gain float64
}

// Name implements Policy.
func (GreedyPolicy) Name() string { return "greedy" }

// Decide implements Policy.
func (p GreedyPolicy) Decide(active, inactive []Candidate) []Order {
	gain := p.Gain
	if gain <= 1 {
		gain = 1.2
	}
	act := append([]Candidate(nil), active...)
	inact := append([]Candidate(nil), inactive...)
	sort.Slice(act, func(i, j int) bool { return act[i].Speed < act[j].Speed })
	sort.Slice(inact, func(i, j int) bool { return inact[i].Speed > inact[j].Speed })
	var orders []Order
	for i := 0; i < len(act) && i < len(inact); i++ {
		if inact[i].Speed >= act[i].Speed*gain {
			orders = append(orders, Order{VRank: act[i].VRank, ToPhys: inact[i].Phys})
		} else {
			break
		}
	}
	return orders
}

// ThresholdPolicy swaps any active machine slower than Fraction of the
// median active speed with the fastest available inactive machine that
// beats it.
type ThresholdPolicy struct {
	Fraction float64
}

// Name implements Policy.
func (ThresholdPolicy) Name() string { return "threshold" }

// Decide implements Policy.
func (p ThresholdPolicy) Decide(active, inactive []Candidate) []Order {
	frac := p.Fraction
	if frac <= 0 || frac >= 1 {
		frac = 0.7
	}
	if len(active) == 0 || len(inactive) == 0 {
		return nil
	}
	speeds := make([]float64, len(active))
	for i, a := range active {
		speeds[i] = a.Speed
	}
	sort.Float64s(speeds)
	median := speeds[len(speeds)/2]

	inact := append([]Candidate(nil), inactive...)
	sort.Slice(inact, func(i, j int) bool { return inact[i].Speed > inact[j].Speed })
	used := 0
	var orders []Order
	for _, a := range active {
		if used >= len(inact) {
			break
		}
		if a.Speed < frac*median && inact[used].Speed > a.Speed {
			orders = append(orders, Order{VRank: a.VRank, ToPhys: inact[used].Phys})
			used++
		}
	}
	return orders
}

// GangPolicy treats the active set as a gang: a synchronized iterative
// application is paced by its slowest member, so when any active machine is
// degraded it considers moving the WHOLE active set to the site whose
// inactive machines offer the best lock-step rate. This reproduces the
// paper's §4.2.2 demonstration, where load on one UTK node caused all three
// working processes to migrate to the UIUC cluster.
type GangPolicy struct {
	// Gain is the required lock-step-rate improvement factor (> 1).
	Gain float64
	// SiteOf maps a physical rank to its site name.
	SiteOf func(phys int) string
}

// Name implements Policy.
func (GangPolicy) Name() string { return "gang" }

// Decide implements Policy.
func (p GangPolicy) Decide(active, inactive []Candidate) []Order {
	gain := p.Gain
	if gain <= 1 {
		gain = 1.2
	}
	if len(active) == 0 || p.SiteOf == nil {
		return nil
	}
	// Current lock-step rate: |active| x slowest active speed.
	slowest := active[0].Speed
	for _, a := range active {
		if a.Speed < slowest {
			slowest = a.Speed
		}
	}
	current := float64(len(active)) * slowest

	// Group inactive machines by site and pick the best destination able
	// to host the whole gang.
	bySite := map[string][]Candidate{}
	for _, c := range inactive {
		s := p.SiteOf(c.Phys)
		bySite[s] = append(bySite[s], c)
	}
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	var best []Candidate
	bestRate := current * gain
	for _, s := range sites {
		cands := bySite[s]
		if len(cands) < len(active) {
			continue
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Speed > cands[j].Speed })
		sel := cands[:len(active)]
		rate := float64(len(sel)) * sel[len(sel)-1].Speed
		if rate >= bestRate {
			bestRate, best = rate, sel
		}
	}
	if best == nil {
		return nil
	}
	orders := make([]Order, len(active))
	for i, a := range active {
		orders[i] = Order{VRank: a.VRank, ToPhys: best[i].Phys}
	}
	return orders
}

// NonePolicy never swaps (the baseline).
type NonePolicy struct{}

// Name implements Policy.
func (NonePolicy) Name() string { return "none" }

// Decide implements Policy.
func (NonePolicy) Decide(_, _ []Candidate) []Order { return nil }

// SpeedFunc reports a physical rank's forecast effective speed for the
// application. active distinguishes machines already running an application
// process (whose own task must not count against them) from idle candidates
// (which would add a task).
type SpeedFunc func(phys int, active bool) float64

// NodeSpeed builds a SpeedFunc from the world placement using instantaneous
// CPU state (what the §4.2 sensors measure): the application's share on an
// active machine is 1/(tasks+load) — its task is already among tasks — and
// on an idle machine 1/(tasks+load+1).
func NodeSpeed(nodes []*topology.Node) SpeedFunc {
	return func(phys int, active bool) float64 {
		n := nodes[phys]
		denom := float64(n.CPU.Running()) + n.CPU.ExternalLoad()
		if !active {
			denom++
		} else if denom < 1 {
			denom = 1
		}
		return n.Spec.Flops() / denom
	}
}

// Daemon is the swapping rescheduler: it periodically gathers machine
// performance, runs the policy, and places swap orders with the runtime.
type Daemon struct {
	sim    *simcore.Sim
	rt     *Runtime
	policy Policy
	period float64
	speed  SpeedFunc

	proc    *simcore.Proc
	stopped bool
}

// StartDaemon spawns the swapping rescheduler checking every period
// seconds.
func StartDaemon(sim *simcore.Sim, rt *Runtime, policy Policy, period float64, speed SpeedFunc) *Daemon {
	if period <= 0 {
		period = 10
	}
	d := &Daemon{sim: sim, rt: rt, policy: policy, period: period, speed: speed}
	d.proc = sim.Spawn("swap-rescheduler", d.run)
	return d
}

// Stop terminates the daemon.
func (d *Daemon) Stop() {
	d.stopped = true
	d.proc.Kill()
}

func (d *Daemon) run(p *simcore.Proc) {
	for !d.stopped {
		if err := p.Sleep(d.period); err != nil {
			return
		}
		d.tick()
	}
}

func (d *Daemon) tick() {
	var active, inactive []Candidate
	for v, phys := range d.rt.ActivePhys() {
		active = append(active, Candidate{Phys: phys, VRank: v, Speed: d.speed(phys, true)})
	}
	for _, phys := range d.rt.InactivePhys() {
		inactive = append(inactive, Candidate{Phys: phys, VRank: -1, Speed: d.speed(phys, false)})
	}
	for _, o := range d.policy.Decide(active, inactive) {
		// An order that conflicts with a pending one is dropped; the
		// next check decides again on fresh speeds.
		_ = d.rt.RequestSwap(o.VRank, o.ToPhys)
	}
}
