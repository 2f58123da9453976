package metasched

import (
	"math/rand"
	"slices"
	"testing"

	"grads/internal/gis"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// freeReference is the free-pool filter as the broker used to compute it:
// collect the live, unleased nodes, then sort a copy by name.
func freeReference(m *LeaseManager, pool []*topology.Node) []*topology.Node {
	var out []*topology.Node
	for _, n := range pool {
		if !n.Down() && m.owner[n] == nil {
			out = append(out, n)
		}
	}
	return sortedByName(out)
}

// TestFreeMatchesReference drives a lease manager on the MacroGrid through
// seeded grants, releases, shrinks, crashes and recoveries, and after every
// step requires Free into a reused buffer to equal the reference filter,
// over the whole grid and over a name-sorted sub-pool.
func TestFreeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sim := simcore.New(seed)
		grid := topology.MacroGrid(sim)
		lm := NewLeaseManager(sim, grid)
		rng := rand.New(rand.NewSource(seed))
		all := grid.Nodes()
		var sub []*topology.Node // every third node, still name-sorted
		for i := 0; i < len(all); i += 3 {
			sub = append(sub, all[i])
		}
		var live []*Lease
		var buf []*topology.Node
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(5); {
			case op == 0 || len(live) == 0:
				free := lm.Free(nil, all)
				rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
				if w := 1 + rng.Intn(8); len(free) >= w {
					l, err := lm.Grant("job", free[:w])
					if err != nil {
						t.Fatalf("seed %d step %d: grant: %v", seed, step, err)
					}
					live = append(live, l)
				}
			case op == 1:
				i := rng.Intn(len(live))
				lm.Release(live[i])
				live = slices.Delete(live, i, i+1)
			case op == 2:
				l := live[rng.Intn(len(live))]
				lm.Shrink(l, l.Nodes()[:l.Size()/2])
			default:
				n := all[rng.Intn(len(all))]
				grid.SetNodeDown(n.Name(), !n.Down())
			}
			for _, pool := range [][]*topology.Node{all, sub} {
				buf = lm.Free(buf[:0], pool)
				if want := freeReference(lm, pool); !slices.Equal(buf, want) {
					t.Fatalf("seed %d step %d: Free = %v, reference %v", seed, step, buf, want)
				}
			}
			if err := lm.Audit(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

var roundPoolSink int

// BenchmarkRoundPool is the node-list half of one admission round on the
// MacroGrid, with one lease held and one node down: the GIS query into the
// round's pool buffer, then the free pool filtered into its own buffer.
func BenchmarkRoundPool(b *testing.B) {
	sim := simcore.New(1)
	grid := topology.MacroGrid(sim)
	g := gis.New(sim, grid)
	lm := NewLeaseManager(sim, grid)
	nodes := grid.Nodes()
	if _, err := lm.Grant("running", nodes[:8]); err != nil {
		b.Fatalf("grant: %v", err)
	}
	grid.SetNodeDown(nodes[len(nodes)-1].Name(), true)
	iters := b.N
	sim.Spawn("round", func(p *simcore.Proc) {
		var pool, free []*topology.Node
		for i := 0; i < iters; i++ {
			var err error
			if pool, err = g.QueryResources(p, gis.Filter{}, pool[:0]); err != nil {
				b.Errorf("query: %v", err)
				return
			}
			free = lm.Free(free[:0], pool)
		}
		roundPoolSink = len(free)
	})
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
}
