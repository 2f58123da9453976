// Package netsim provides a flow-level network simulation with max-min fair
// bandwidth sharing.
//
// Transfers are modeled as fluid flows over a route (a sequence of links).
// All concurrent flows share link capacity max-min fairly: the allocation is
// computed by progressive filling and recomputed whenever a flow starts or
// ends or a link's background traffic changes. Latency is paid once per
// route before the flow starts. This fidelity level captures everything the
// GrADS experiments measure (transfer durations under contention and
// time-varying cross traffic) without packet-level cost.
//
// # Incremental solver
//
// The max-min allocation decomposes over connected components of the
// bipartite flow–link graph: flows in different components share no links,
// so their rates are independent. The default solver exploits this. Every
// mutation (flow start/finish, background change, degradation) marks the
// affected links dirty; one coalesced reallocation per virtual instant then
// re-solves only the connected component(s) reachable from the dirty links,
// leaving all other flow rates untouched. Both solvers run the identical
// progressive-filling code (solveFlows) over a seq-ordered flow list, so the
// incremental path is bit-identical to the global one — a property enforced
// by the differential harness in internal/simtest.
//
// SetReferenceSolver(true) (gradsim -netsim-reference) disables the
// component scoping and re-solves every flow on every reallocation, exactly
// like the original global solver. It is the oracle the incremental solver
// is checked against.
//
// # Batched reallocation
//
// Reallocations are deferred to a simcore.Coalescer: N simultaneous flow
// completions (or an arbitrary burst of same-instant mutations) trigger one
// progressive-filling pass instead of N. The flush always runs before
// virtual time advances, so no process can observe stale rates across an
// interval; synchronous readers (EstimateRate, FlowSnapshot) force the flush
// themselves.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// ErrLinkDown is returned by transfers over a partitioned link and is the
// interrupt cause delivered to flows crossing a link when it goes down.
var ErrLinkDown = errors.New("netsim: link down")

// ErrEndpointDown is the interrupt cause delivered to flows whose source or
// destination endpoint (node) failed mid-transfer.
var ErrEndpointDown = errors.New("netsim: endpoint down")

// Link is a network link with fixed capacity and latency plus adjustable
// background (cross) traffic and a fault state (degradation factors and a
// partition flag) controlled by the chaos layer. Create links with
// Network.AddLink.
type Link struct {
	name       string
	capacity   float64 // bytes per second
	latency    float64 // seconds
	background float64 // bytes per second consumed by cross traffic

	capFactor float64 // degradation multiplier on capacity, (0, 1]
	latFactor float64 // degradation multiplier on latency, >= 1
	down      bool    // partitioned: transfers fail

	flows map[*flow]struct{} // active flows crossing this link

	// Solver scratch, valid only while stamp equals the owning network's
	// current epoch. Keeping it on the link makes each solve allocation-free.
	svResidual float64
	svCount    int
	stamp      int64
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's effective capacity in bytes per second:
// the raw capacity scaled by any injected degradation.
func (l *Link) Capacity() float64 { return l.capacity * l.capFactor }

// Latency returns the link's effective one-way latency in seconds,
// including any injected degradation.
func (l *Link) Latency() float64 { return l.latency * l.latFactor }

// Down reports whether the link is partitioned.
func (l *Link) Down() bool { return l.down }

// residual returns capacity available to simulated flows, floored at a tiny
// positive value so saturated links stall flows without dividing by zero.
func (l *Link) residual() float64 {
	r := l.capacity*l.capFactor - l.background
	if r < 1 {
		r = 1
	}
	return r
}

// Residual returns the capacity available to simulated flows in bytes/s
// (effective capacity minus background traffic, floored at 1 B/s). It is
// what the max-min solver divides among the flows crossing the link; the
// simtest invariant checks compare flow-rate sums against it.
func (l *Link) Residual() float64 { return l.residual() }

// Network owns links and active flows and maintains the max-min fair
// allocation in virtual time.
type Network struct {
	sim     *simcore.Sim
	links   map[string]*Link
	flows   []*flow // active flows, ascending seq (start order)
	nextSeq int64

	lastUpdate float64
	doneEvent  simcore.Event
	onDone     func() // completion handler, bound once to avoid per-reschedule allocs

	bytesMoved float64 // cumulative completed-flow volume, for stats

	reference bool // re-solve every flow on every reallocation (oracle mode)

	// Deferred-reallocation state: mutations mark links dirty and trigger
	// one coalesced flush per virtual instant.
	realloc *simcore.Coalescer
	dirty   map[*Link]struct{}
	reasons []string // distinct mutation reasons folded into the next flush

	epoch   int64 // stamp generator for link scratch and flow marks
	version int64 // bumped on every state mutation, see StateVersion

	// Reusable scratch for the solver and completion handling.
	seedScratch  []*Link
	queueScratch []*Link
	compScratch  []*flow
	linkScratch  []*Link
	workScratch  []*flow
	finScratch   []*flow

	statSolves      int64 // progressive-filling passes run
	statFlowsSolved int64 // flow rates recomputed, summed over passes
}

type flow struct {
	seq       int64
	route     []*Link
	remaining float64
	total     float64
	rate      float64
	start     float64
	proc      *simcore.Proc
	src, dst  string // endpoint labels for fault targeting ("" = unlabeled)

	mark int64 // component-walk visit stamp
}

// New creates an empty network bound to sim.
func New(sim *simcore.Sim) *Network {
	n := &Network{
		sim:        sim,
		links:      make(map[string]*Link),
		lastUpdate: sim.Now(),
		dirty:      make(map[*Link]struct{}),
	}
	n.realloc = simcore.NewCoalescer(sim, n.flush)
	n.onDone = n.onCompletion
	return n
}

// SetReferenceSolver selects between the incremental component solver
// (false, the default) and the global reference solver (true), which
// re-solves every flow on every reallocation. Both produce bit-identical
// rates; the reference solver exists as the oracle for the differential
// harness. Any pending reallocation is flushed before switching.
func (n *Network) SetReferenceSolver(on bool) {
	n.realloc.Flush()
	n.reference = on
}

// SolverStats returns the number of progressive-filling passes run and the
// total number of flow rates recomputed across them. Under the incremental
// solver the second number counts only dirty-component flows; under the
// reference solver it counts every active flow per pass.
func (n *Network) SolverStats() (passes, flowsSolved int64) {
	return n.statSolves, n.statFlowsSolved
}

// AddLink creates and registers a link. capacity is in bytes per second,
// latency in seconds. It panics on a duplicate name or non-positive capacity.
func (n *Network) AddLink(name string, capacity, latency float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity must be positive", name))
	}
	if _, dup := n.links[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %q", name))
	}
	l := &Link{
		name: name, capacity: capacity, latency: latency,
		capFactor: 1, latFactor: 1,
		flows: make(map[*flow]struct{}),
	}
	n.links[name] = l
	return l
}

// Link returns the named link, or nil.
func (n *Network) Link(name string) *Link { return n.links[name] }

// SetBackground changes a link's cross-traffic consumption (bytes/s) and
// re-splits the bandwidth of the flows sharing capacity with it.
func (n *Network) SetBackground(l *Link, bytesPerSec float64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	n.advance()
	l.background = bytesPerSec
	n.invalidateLink("background:"+l.name, l)
}

// SetCapacityFactor degrades (or restores) a link: its capacity becomes
// factor times the raw capacity. factor clamps to (0, 1]. Active flows
// re-split at the current instant.
func (n *Network) SetCapacityFactor(l *Link, factor float64) {
	if factor <= 0 {
		factor = 1e-6
	}
	if factor > 1 {
		factor = 1
	}
	n.advance()
	l.capFactor = factor
	n.invalidateLink("degrade:"+l.name, l)
}

// SetLatencyFactor multiplies a link's latency by factor (>= 1); 1 restores
// the raw latency. Latency is paid at flow start, so only new transfers see
// the change.
func (n *Network) SetLatencyFactor(l *Link, factor float64) {
	if factor < 1 {
		factor = 1
	}
	l.latFactor = factor
	n.version++
}

// SetLinkDown partitions or restores a link. Going down kills every active
// flow crossing the link (each blocked transfer returns ErrLinkDown with
// its partial byte count) and makes new transfers over it fail until the
// link comes back.
func (n *Network) SetLinkDown(l *Link, down bool) {
	if l.down == down {
		return
	}
	n.advance()
	l.down = down
	if down {
		n.failFlows(func(f *flow) bool {
			for _, fl := range f.route {
				if fl == l {
					return true
				}
			}
			return false
		}, ErrLinkDown)
	}
	n.invalidateLink("partition:"+l.name, l)
}

// FailEndpoint kills every active flow labeled with the given endpoint as
// source or destination (a node crash severs its transfers mid-flight).
// Each victim's blocked transfer returns cause with its partial byte count.
// It returns the number of flows killed.
func (n *Network) FailEndpoint(name string, cause error) int {
	if cause == nil {
		cause = ErrEndpointDown
	}
	n.advance()
	killed := n.failFlows(func(f *flow) bool { return f.src == name || f.dst == name }, cause)
	if killed > 0 {
		n.note("endpoint:" + name)
	}
	return killed
}

// failFlows interrupts every active flow matching the predicate with cause.
// The victims' Transfer calls unwind (removing themselves from the flow
// set) as each interrupt is delivered. It returns the number interrupted.
func (n *Network) failFlows(match func(*flow) bool, cause error) int {
	var victims []*flow
	for _, f := range n.flows {
		if match(f) {
			victims = append(victims, f)
		}
	}
	for _, f := range victims {
		f.proc.Interrupt(cause)
	}
	if len(victims) > 0 {
		if tel := n.sim.Telemetry(); tel != nil {
			tel.Counter("netsim", "flows_killed").Add(uint64(len(victims)))
		}
	}
	return len(victims)
}

// routeUp returns nil when every link of route is up, or ErrLinkDown naming
// the first partitioned link.
func routeUp(route []*Link) error {
	for _, l := range route {
		if l.down {
			return fmt.Errorf("%w: %s", ErrLinkDown, l.name)
		}
	}
	return nil
}

// StateVersion returns a counter that increases on every network state
// mutation (flow add/remove, background, degradation, partition, latency
// changes). Equal versions guarantee rate and latency estimates over any
// route return identical values, making the version a sound memoization key
// for transfer-time estimates; EstimateRate probes restore state exactly and
// do not bump it.
func (n *Network) StateVersion() int64 { return n.version }

// note records a mutation reason for the next coalesced reallocation and
// triggers the flush, without marking any link dirty.
func (n *Network) note(reason string) {
	n.version++
	for _, r := range n.reasons {
		if r == reason {
			n.realloc.Trigger()
			return
		}
	}
	n.reasons = append(n.reasons, reason)
	n.realloc.Trigger()
}

// invalidateLink marks one link dirty and schedules the coalesced flush.
func (n *Network) invalidateLink(reason string, l *Link) {
	n.dirty[l] = struct{}{}
	n.note(reason)
}

// invalidateRoute marks every link of a route dirty and schedules the flush.
func (n *Network) invalidateRoute(reason string, route []*Link) {
	for _, l := range route {
		n.dirty[l] = struct{}{}
	}
	n.note(reason)
}

// flush is the coalesced reallocation: it folds elapsed progress, re-solves
// the dirty scope, re-arms the completion event and publishes one realloc
// trace event carrying every distinct mutation reason of the batch.
func (n *Network) flush() {
	n.advance()
	if len(n.dirty) > 0 {
		seed := n.seedScratch[:0]
		for l := range n.dirty {
			seed = append(seed, l)
		}
		clear(n.dirty)
		n.solveSeed(seed)
		n.seedScratch = seed[:0]
	}
	n.reschedule()
	if len(n.reasons) > 0 {
		n.emitRealloc(strings.Join(n.reasons, "+"))
		n.reasons = n.reasons[:0]
	}
}

// emitRealloc publishes a max-min reallocation trace event. It is called
// only at real allocation-changing points, never from EstimateRate probes.
func (n *Network) emitRealloc(reason string) {
	tel := n.sim.Telemetry()
	if tel == nil {
		return
	}
	tel.Counter("netsim", "reallocs").Inc()
	minRate, maxRate := math.Inf(1), 0.0
	for _, f := range n.flows {
		if f.rate < minRate {
			minRate = f.rate
		}
		if f.rate > maxRate {
			maxRate = f.rate
		}
	}
	if len(n.flows) == 0 {
		minRate = 0
	}
	tel.Emit(telemetry.Event{
		Type: telemetry.EvNetRealloc, Comp: "netsim",
		Args: []telemetry.Arg{
			telemetry.S("reason", reason),
			telemetry.I("flows", len(n.flows)),
			telemetry.F("min_rate", minRate),
			telemetry.F("max_rate", maxRate),
		},
	})
}

// BytesMoved returns the cumulative volume of completed transfers.
func (n *Network) BytesMoved() float64 { return n.bytesMoved }

// FlowInfo is a read-only snapshot of one active flow.
type FlowInfo struct {
	Rate      float64 // current max-min fair rate, bytes/s
	Remaining float64 // bytes left to move
	Total     float64 // transfer size, bytes
	Route     []*Link // links crossed, in order (do not mutate)
}

// FlowSnapshot returns the active flows in start order. Any pending
// coalesced reallocation is flushed first so the rates are current.
func (n *Network) FlowSnapshot() []FlowInfo {
	n.realloc.Flush()
	n.advance()
	out := make([]FlowInfo, len(n.flows))
	for i, f := range n.flows {
		out[i] = FlowInfo{Rate: f.rate, Remaining: f.remaining, Total: f.total, Route: f.route}
	}
	return out
}

// RouteLatency returns the summed one-way latency of a route.
func (n *Network) RouteLatency(route []*Link) float64 {
	sum := 0.0
	for _, l := range route {
		sum += l.Latency()
	}
	return sum
}

// EstimateRate returns the max-min fair rate (bytes/s) that a new flow over
// route would receive if it started now, given current flows and background
// traffic. This is what an NWS-style bandwidth probe observes.
func (n *Network) EstimateRate(route []*Link) float64 {
	if len(route) == 0 {
		return math.Inf(1)
	}
	// Fold any pending same-instant mutations so the probe sees the state a
	// real flow would start into.
	n.realloc.Flush()
	// The phantom's seq sorts after every real flow, mirroring its position
	// at the tail of the flow list.
	phantom := &flow{seq: math.MaxInt64, route: route, remaining: 1}
	n.flows = append(n.flows, phantom)
	n.indexFlow(phantom)
	n.probeSolve(route)
	rate := phantom.rate
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	n.unindexFlow(phantom)
	n.probeSolve(route) // restore pre-probe rates (bit-identical re-solve)
	return rate
}

// probeSolve re-solves the scope affected by an EstimateRate probe: the
// probe route's connected component, or everything in reference mode.
func (n *Network) probeSolve(route []*Link) {
	if n.reference {
		n.solveFlows(n.flows)
		return
	}
	seed := n.seedScratch[:0]
	seed = append(seed, route...)
	n.solveSeed(seed)
	n.seedScratch = seed[:0]
}

// TransferTimeEstimate predicts the duration of moving the given volume over
// route under current conditions (latency + volume at the estimated rate).
func (n *Network) TransferTimeEstimate(route []*Link, bytes float64) float64 {
	if len(route) == 0 || bytes <= 0 {
		return 0
	}
	return n.RouteLatency(route) + bytes/n.EstimateRate(route)
}

// Transfer moves bytes over route, blocking the calling process for the
// route latency plus the fair-shared transmission time. It returns the bytes
// actually delivered and the interrupt cause if interrupted mid-transfer.
// An empty route (intra-node move) completes after a yield. Transfers over a
// partitioned link fail immediately with ErrLinkDown.
func (n *Network) Transfer(p *simcore.Proc, route []*Link, bytes float64) (moved float64, err error) {
	return n.TransferLabeled(p, route, bytes, "", "")
}

// TransferLabeled is Transfer with the flow labeled by its source and
// destination node names, making it a target for FailEndpoint: when either
// endpoint goes down mid-transfer the flow is killed and the blocked call
// returns the failure cause with the partial byte count. Empty labels opt
// out of endpoint fault targeting.
func (n *Network) TransferLabeled(p *simcore.Proc, route []*Link, bytes float64, src, dst string) (moved float64, err error) {
	if len(route) == 0 || bytes <= 0 {
		return bytes, p.Yield()
	}
	if err := routeUp(route); err != nil {
		return 0, err
	}
	if err := p.Sleep(n.RouteLatency(route)); err != nil {
		return 0, err
	}
	// Re-check after paying the latency: the link may have been cut while
	// the first bit was in flight.
	if err := routeUp(route); err != nil {
		return 0, err
	}
	n.advance()
	n.nextSeq++
	f := &flow{seq: n.nextSeq, route: route, remaining: bytes, total: bytes, start: n.sim.Now(), proc: p, src: src, dst: dst}
	n.flows = append(n.flows, f)
	n.indexFlow(f)
	n.invalidateRoute("flow-start", route)
	if tel := n.sim.Telemetry(); tel != nil {
		tel.Emit(telemetry.Event{
			Type: telemetry.EvFlowStart, Comp: "netsim", Name: p.Name(),
			Args: []telemetry.Arg{
				telemetry.F("bytes", bytes),
				telemetry.I("hops", len(route)),
			},
		})
	}
	if err := p.ParkWith(nil); err != nil {
		n.removeFlow(f)
		return f.total - f.remaining, err
	}
	return f.total, nil
}

// indexFlow registers f on every link of its route.
func (n *Network) indexFlow(f *flow) {
	for _, l := range f.route {
		l.flows[f] = struct{}{}
	}
}

// unindexFlow removes f from every link of its route.
func (n *Network) unindexFlow(f *flow) {
	for _, l := range f.route {
		delete(l.flows, f)
	}
}

// advance progresses all flows to the current time at their last rates.
func (n *Network) advance() {
	now := n.sim.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 1e-9+1e-12*f.total {
				f.remaining = 0
			}
		}
	}
	n.lastUpdate = now
}

// solveSeed re-solves the connected component(s) of the flow–link graph
// reachable from the seed links — or every flow in reference mode. Because
// max-min allocations decompose over components, solving a component in
// isolation yields exactly the rates the global solve would assign it.
func (n *Network) solveSeed(seed []*Link) {
	if len(n.flows) == 0 {
		return
	}
	if n.reference {
		n.solveFlows(n.flows)
		return
	}
	n.epoch++
	ep := n.epoch
	queue := n.queueScratch[:0]
	for _, l := range seed {
		if l.stamp != ep {
			l.stamp = ep
			queue = append(queue, l)
		}
	}
	marked := 0
	for qi := 0; qi < len(queue); qi++ {
		for f := range queue[qi].flows {
			if f.mark == ep {
				continue
			}
			f.mark = ep
			marked++
			for _, rl := range f.route {
				if rl.stamp != ep {
					rl.stamp = ep
					queue = append(queue, rl)
				}
			}
		}
	}
	n.queueScratch = queue[:0]
	if marked == 0 {
		return
	}
	if marked == len(n.flows) {
		// The dirty scope covers everything; n.flows is already seq-ordered.
		n.solveFlows(n.flows)
		return
	}
	// Collect the marked flows by filtering the flow list, which reproduces
	// the reference solver's iteration order (ascending seq) exactly.
	comp := n.compScratch[:0]
	for _, f := range n.flows {
		if f.mark == ep {
			comp = append(comp, f)
		}
	}
	n.solveFlows(comp)
	n.compScratch = comp[:0]
}

// solveFlows runs progressive filling over the given seq-ordered flow set,
// assigning each flow its max-min fair rate. It is the single shared solver
// core: the reference path passes every active flow, the incremental path a
// connected component. The arithmetic (iteration order, freeze tolerance,
// residual clamping) is identical either way, which is what makes the two
// paths bit-identical.
func (n *Network) solveFlows(flows []*flow) {
	if len(flows) == 0 {
		return
	}
	n.statSolves++
	n.statFlowsSolved += int64(len(flows))
	n.epoch++
	ep := n.epoch
	links := n.linkScratch[:0]
	for _, f := range flows {
		for _, l := range f.route {
			if l.stamp != ep {
				l.stamp = ep
				l.svResidual = l.residual()
				l.svCount = 0
				links = append(links, l)
			}
			l.svCount++
		}
	}
	work := n.workScratch[:0]
	work = append(work, flows...)
	for len(work) > 0 {
		// Find the tightest link share among links with unfrozen flows.
		minShare := math.Inf(1)
		for _, l := range links {
			if l.svCount > 0 {
				if sh := l.svResidual / float64(l.svCount); sh < minShare {
					minShare = sh
				}
			}
		}
		if math.IsInf(minShare, 1) {
			break
		}
		// Freeze every unfrozen flow crossing a bottleneck link.
		progress := false
		next := work[:0]
		for _, f := range work {
			bottlenecked := false
			for _, l := range f.route {
				if l.svCount > 0 && l.svResidual/float64(l.svCount) <= minShare*(1+1e-12) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				next = append(next, f)
				continue
			}
			f.rate = minShare
			progress = true
			for _, l := range f.route {
				l.svResidual -= minShare
				if l.svResidual < 0 {
					l.svResidual = 0
				}
				l.svCount--
			}
		}
		work = next
		if !progress {
			break
		}
	}
	n.linkScratch = links[:0]
	n.workScratch = work[:0]
}

// reschedule cancels the pending completion event and schedules the next
// flow completion under current rates.
func (n *Network) reschedule() {
	n.doneEvent.Cancel()
	if len(n.flows) == 0 {
		return
	}
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	n.doneEvent = n.sim.Schedule(soonest, n.onDone)
}

// onCompletion finishes exhausted flows in one pass over the flow list,
// marks their routes for the coalesced reallocation, and wakes their
// processes. Simultaneous completions therefore cost a single progressive
// filling, and the surviving flows keep their relative (seq) order, which
// keeps completion handling deterministic at equal timestamps.
func (n *Network) onCompletion() {
	n.advance()
	now := n.sim.Now()
	tel := n.sim.Telemetry()
	finished := n.finScratch[:0]
	rest := n.flows[:0]
	for _, f := range n.flows {
		// A flow is done when no work remains — or when the work left is
		// so small its completion time is absorbed by floating point
		// (now + dt == now), which would otherwise loop the event forever.
		if f.remaining <= 0 || (f.rate > 0 && now+f.remaining/f.rate == now) {
			f.remaining = 0
			n.bytesMoved += f.total
			n.unindexFlow(f)
			n.invalidateRoute("flow-end", f.route)
			finished = append(finished, f)
			if tel != nil {
				tel.Histogram("netsim", "flow_seconds").Observe(now - f.start)
				tel.Histogram("netsim", "flow_bytes").Observe(f.total)
				tel.Emit(telemetry.Event{
					Type: telemetry.EvFlowEnd, Comp: "netsim", Name: f.proc.Name(),
					Dur:  now - f.start,
					Args: []telemetry.Arg{telemetry.F("bytes", f.total)},
				})
			}
		} else {
			rest = append(rest, f)
		}
	}
	for i := len(rest); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = rest
	if len(finished) == 0 {
		// Floating-point guard: nothing actually crossed zero; re-arm the
		// completion event through the flush without emitting a realloc.
		n.realloc.Trigger()
	} else if tel != nil {
		tel.Counter("netsim", "flows_completed").Add(uint64(len(finished)))
	}
	// Resume in a separate pass: a resumed process runs immediately and may
	// start new transfers, mutating the flow list mid-iteration otherwise.
	for i, f := range finished {
		finished[i] = nil
		f.proc.Resume(nil)
	}
	n.finScratch = finished[:0]
}

// removeFlow deletes a flow whose process was interrupted, preserving the
// seq order of the survivors.
func (n *Network) removeFlow(f *flow) {
	n.advance()
	for i, x := range n.flows {
		if x == f {
			copy(n.flows[i:], n.flows[i+1:])
			n.flows[len(n.flows)-1] = nil
			n.flows = n.flows[:len(n.flows)-1]
			break
		}
	}
	n.unindexFlow(f)
	n.invalidateRoute("flow-interrupted", f.route)
}
