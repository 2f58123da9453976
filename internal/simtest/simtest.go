// Package simtest verifies the netsim incremental solver against the
// reference solver. It provides two complementary checks:
//
//   - A differential harness: a seeded random transfer workload (with
//     optional chaos mutations — background shifts, degradations, partitions,
//     endpoint failures) is replayed through both solvers, each run emitting a
//     telemetry JSONL trace into a buffer. The two traces must be
//     byte-identical: same events, same timestamps, same rates, same
//     completion order. Any divergence — a rate differing in the last ulp, a
//     completion reordering, an extra reallocation — shows up as a byte diff.
//
//   - Property tests: at sampled virtual times the active allocation is
//     checked against the defining max-min fairness invariants (capacity
//     feasibility, positivity, and the bottleneck condition: every flow
//     crosses a saturated link on which it has a maximal rate), independent
//     of what the reference solver computes.
//
// The package is exercised by its own tests and by the solver-equivalence CI
// job, which replays published experiments under both solvers.
package simtest

import (
	"bytes"
	"fmt"

	"grads/internal/netsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
)

// Workload describes one seeded random transfer workload over a multi-site
// topology: per-site LANs joined by a smaller set of WAN backbones, with
// transfers between random site pairs and an optional chaos schedule.
type Workload struct {
	Seed     int64   // RNG seed; fixes the workload and the trace bytes
	Sites    int     // LAN count (one per site)
	Wans     int     // WAN backbone count joining site pairs
	Flows    int     // transfers started over [0, 0.6*Horizon)
	ChaosOps int     // chaos mutations scheduled over [0, 0.8*Horizon); 0 = calm
	Horizon  float64 // virtual seconds to run
}

// DefaultWorkload returns a workload that keeps several dozen flows in
// flight across multiple components with a moderately hostile chaos
// schedule.
func DefaultWorkload(seed int64) Workload {
	return Workload{Seed: seed, Sites: 6, Wans: 3, Flows: 80, ChaosOps: 24, Horizon: 50}
}

// Build wires the workload onto a fresh simulation using the requested
// solver and returns the simulation, the network, and every link (LANs
// first, then WANs). Nothing has run yet; the caller drives virtual time.
func Build(cfg Workload, reference bool, tel *telemetry.Telemetry) (*simcore.Sim, *netsim.Network, []*netsim.Link) {
	sim := simcore.New(cfg.Seed)
	if tel != nil {
		sim.SetTelemetry(tel)
	}
	n := netsim.New(sim)
	n.SetReferenceSolver(reference)

	lans := make([]*netsim.Link, cfg.Sites)
	for i := range lans {
		// Distinct capacities at every site so near-tie freeze rounds are the
		// exception, not the rule, and components are asymmetric.
		lans[i] = n.AddLink(fmt.Sprintf("lan%d", i), 1e6+float64(i)*7919, 0.0005)
	}
	wans := make([]*netsim.Link, cfg.Wans)
	for j := range wans {
		wans[j] = n.AddLink(fmt.Sprintf("wan%d", j), 2.5e5+float64(j)*104729, 0.02)
	}
	links := append(append([]*netsim.Link{}, lans...), wans...)

	// Draw the whole schedule up front from the simulation RNG: the draws are
	// then independent of event interleaving by construction, so both solver
	// runs replay the exact same workload.
	rng := sim.Rand()
	for i := 0; i < cfg.Flows; i++ {
		start := rng.Float64() * 0.6 * cfg.Horizon
		a := rng.Intn(cfg.Sites)
		b := rng.Intn(cfg.Sites)
		size := 1e3 + rng.Float64()*5e5
		route := []*netsim.Link{lans[a]}
		if a != b {
			route = append(route, wans[(a+b)%cfg.Wans], lans[b])
		}
		src, dst := fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b)
		name := fmt.Sprintf("xfer%d", i)
		sim.SpawnAt(start, name, func(p *simcore.Proc) {
			n.TransferLabeled(p, route, size, src, dst)
		})
	}
	for i := 0; i < cfg.ChaosOps; i++ {
		at := rng.Float64() * 0.8 * cfg.Horizon
		l := links[rng.Intn(len(links))]
		switch rng.Intn(5) {
		case 0:
			bg := rng.Float64() * 0.5 * l.Capacity()
			sim.At(at, func() { n.SetBackground(l, bg) })
		case 1:
			f := 0.3 + 0.7*rng.Float64()
			sim.At(at, func() { n.SetCapacityFactor(l, f) })
		case 2:
			up := at + 0.5 + rng.Float64()*3
			sim.At(at, func() { n.SetLinkDown(l, true) })
			sim.At(up, func() { n.SetLinkDown(l, false) })
		case 3:
			victim := fmt.Sprintf("n%d", rng.Intn(cfg.Sites))
			sim.At(at, func() { n.FailEndpoint(victim, nil) })
		case 4:
			f := 1 + rng.Float64()*2
			sim.At(at, func() { n.SetLatencyFactor(l, f) })
		}
	}
	return sim, n, links
}

// Trace replays the workload to its horizon under the chosen solver and
// returns the resulting telemetry JSONL stream. Two calls with the same
// workload must return byte-identical traces regardless of the solver.
func Trace(cfg Workload, reference bool) ([]byte, error) {
	var buf bytes.Buffer
	tel := telemetry.New()
	tel.AddSink(telemetry.NewJSONL(&buf))
	sim, _, _ := Build(cfg, reference, tel)
	sim.RunUntil(cfg.Horizon)
	if err := tel.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Violation describes one broken max-min invariant.
type Violation struct {
	Invariant string // "feasibility", "positivity", or "bottleneck"
	Detail    string
}

// CheckMaxMin validates the defining properties of a max-min fair
// allocation over the given flow snapshot:
//
//  1. Feasibility: on every link the flow rates sum to at most the residual
//     capacity (within relative tolerance).
//  2. Positivity: every active flow has a strictly positive rate.
//  3. Bottleneck condition: every flow crosses at least one saturated link
//     on which its rate is maximal among the link's flows. (This is
//     equivalent to max-min optimality and implies Pareto efficiency: no
//     flow's rate can grow without shrinking an equal-or-slower flow.)
//
// It returns every violation found, empty when the allocation is max-min.
func CheckMaxMin(flows []netsim.FlowInfo) []Violation {
	const eps = 1e-9
	load := map[*netsim.Link]float64{}
	maxRate := map[*netsim.Link]float64{}
	for _, f := range flows {
		for _, l := range f.Route {
			load[l] += f.Rate
			if f.Rate > maxRate[l] {
				maxRate[l] = f.Rate
			}
		}
	}
	var out []Violation
	for l, sum := range load {
		if sum > l.Residual()*(1+eps) {
			out = append(out, Violation{"feasibility",
				fmt.Sprintf("link %s carries %g B/s over residual %g B/s", l.Name(), sum, l.Residual())})
		}
	}
	for i, f := range flows {
		if !(f.Rate > 0) {
			out = append(out, Violation{"positivity",
				fmt.Sprintf("flow %d (remaining %g B) has rate %g", i, f.Remaining, f.Rate)})
			continue
		}
		bottlenecked := false
		for _, l := range f.Route {
			saturated := load[l] >= l.Residual()*(1-eps)
			if saturated && f.Rate >= maxRate[l]*(1-eps) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			out = append(out, Violation{"bottleneck",
				fmt.Sprintf("flow %d (rate %g) has no saturated route link where its rate is maximal", i, f.Rate)})
		}
	}
	return out
}
