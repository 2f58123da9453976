package netsim

import (
	"fmt"
	"testing"

	"grads/internal/simcore"
)

// benchSolver64x512 measures the flow-churn hot path on a 64-node grid:
// 16 sites of 4 nodes, each site behind a LAN link, sites joined pairwise by
// a WAN link (8 site-pair components), with 512 long-lived flows spread over
// intra-site and cross-site routes. Each iteration is one EstimateRate
// probe — a phantom flow add + solve + remove + solve, i.e. exactly the
// solver work a real flow start/finish costs. The incremental solver touches
// one 64-flow component per solve; the reference solver re-solves all 512.
//
// CI runs both, and cmd/benchguard turns the pair into BENCH_netsim.json,
// failing the build if the incremental solver is not faster.
func benchSolver64x512(b *testing.B, reference bool) {
	const sites = 16 // x 4 nodes = 64 nodes
	s := simcore.New(1)
	n := New(s)
	n.SetReferenceSolver(reference)
	lans := make([]*Link, sites)
	for i := range lans {
		// Slightly distinct capacities keep cross-component shares from
		// colliding, mirroring heterogeneous real sites.
		lans[i] = n.AddLink(fmt.Sprintf("lan:%d", i), 1e9+float64(i)*1e7, 0)
	}
	wans := make([]*Link, sites/2)
	for i := range wans {
		wans[i] = n.AddLink(fmt.Sprintf("wan:%d", i), 4e8+float64(i)*1e6, 0)
	}
	for i := 0; i < 512; i++ {
		pair := i % (sites / 2)
		siteA, siteB := 2*pair, 2*pair+1
		var route []*Link
		switch i % 4 {
		case 0: // intra-site at A
			route = []*Link{lans[siteA]}
		case 1: // intra-site at B
			route = []*Link{lans[siteB]}
		default: // cross-site over the pair's WAN
			route = []*Link{lans[siteA], wans[pair], lans[siteB]}
		}
		s.Spawn("bg", func(p *simcore.Proc) { n.Transfer(p, route, 1e15) })
	}
	s.RunUntil(1)
	if len(n.flows) != 512 {
		b.Fatalf("setup: %d active flows, want 512", len(n.flows))
	}
	probe := []*Link{lans[0], wans[0], lans[1]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.EstimateRate(probe)
	}
}

func BenchmarkSolver64Nodes512FlowsReference(b *testing.B) { benchSolver64x512(b, true) }

func BenchmarkSolver64Nodes512FlowsIncremental(b *testing.B) { benchSolver64x512(b, false) }
