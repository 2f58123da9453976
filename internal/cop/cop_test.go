package cop

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func grid() *topology.Grid {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("F", 1e8, 1e-4)
	g.AddSite("S", 1e8, 1e-4)
	g.Connect("F", "S", 1e6, 0.01)
	g.AddNode(topology.NodeSpec{Name: "f1", Site: "F", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "f2", Site: "F", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s1", Site: "S", MHz: 400, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s2", Site: "S", MHz: 400, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "s3", Site: "S", MHz: 400, FlopsPerCycle: 1})
	return g
}

func TestGreedyMapperTopFastest(t *testing.T) {
	g := grid()
	m := GreedyMapper{Width: 2}
	sel := m.Map(g.Nodes(), nil)
	if len(sel) != 2 || sel[0].Name() != "f1" || sel[1].Name() != "f2" {
		t.Fatalf("selected %v", names(sel))
	}
	if got := (GreedyMapper{Width: 0}).Map(g.Nodes(), nil); got != nil {
		t.Fatal("width 0 should select nothing")
	}
	if got := m.Map(nil, nil); got != nil {
		t.Fatal("empty pool should select nothing")
	}
}

func TestGreedyMapperSameSiteAggregateRate(t *testing.T) {
	g := grid()
	// Width 3: F offers 2x1e9 = 2e9; S offers 3x4e8 = 1.2e9 -> F wins.
	m := GreedyMapper{Width: 3, SameSite: true}
	sel := m.Map(g.Nodes(), nil)
	if len(sel) != 2 || sel[0].Site().Name != "F" {
		t.Fatalf("width 3 chose %v", names(sel))
	}
	// Width 5 still compares per-site: F 2e9 vs S 1.2e9 -> F.
	m.Width = 5
	sel = m.Map(g.Nodes(), nil)
	if sel[0].Site().Name != "F" {
		t.Fatalf("width 5 chose %v", names(sel))
	}
	// Load F: availability 0.2 -> F rate 2*2e8=4e8 < S 1.2e9 -> S wins.
	avail := func(n *topology.Node) float64 {
		if n.Site().Name == "F" {
			return 0.2
		}
		return 1
	}
	sel = m.Map(g.Nodes(), avail)
	if len(sel) != 3 || sel[0].Site().Name != "S" {
		t.Fatalf("loaded-F selection %v", names(sel))
	}
}

func names(ns []*topology.Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name())
	}
	return out
}

// refGreedyMap is GreedyMapper.Map as it was first written: filter the
// live nodes, group them by site in a map, and sort copies with a
// comparator that recomputes both speeds on every comparison. It is the
// oracle TestGreedyMapMatchesReference checks Map against.
func refGreedyMap(m GreedyMapper, pool []*topology.Node, avail func(*topology.Node) float64) []*topology.Node {
	if len(pool) == 0 || m.Width <= 0 {
		return nil
	}
	speed := func(n *topology.Node) float64 {
		a := 1.0
		if avail != nil {
			a = avail(n)
		}
		return n.Spec.Flops() * a
	}
	var alive []*topology.Node
	for _, n := range pool {
		if !n.Down() {
			alive = append(alive, n)
		}
	}
	pool = alive
	if !m.SameSite {
		return refTopFastest(pool, m.Width, speed)
	}
	bySite := map[string][]*topology.Node{}
	for _, n := range pool {
		bySite[n.Site().Name] = append(bySite[n.Site().Name], n)
	}
	var bestSet []*topology.Node
	bestRate := -1.0
	names := make([]string, 0, len(bySite))
	for s := range bySite {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		sel := refTopFastest(bySite[s], m.Width, speed)
		if len(sel) == 0 {
			continue
		}
		slowest := speed(sel[len(sel)-1])
		rate := float64(len(sel)) * slowest
		if rate > bestRate {
			bestRate, bestSet = rate, sel
		}
	}
	return bestSet
}

func refTopFastest(pool []*topology.Node, k int, speed func(*topology.Node) float64) []*topology.Node {
	sel := append([]*topology.Node(nil), pool...)
	sort.SliceStable(sel, func(i, j int) bool {
		si, sj := speed(sel[i]), speed(sel[j])
		if si != sj {
			return si > sj
		}
		return sel[i].Name() < sel[j].Name()
	})
	if len(sel) > k {
		sel = sel[:k]
	}
	return sel
}

// tiedGrid is three sites whose nodes share a handful of clock rates, so
// speeds tie within and across sites.
func tiedGrid() *topology.Grid {
	g := topology.NewGrid(simcore.New(1))
	sites := []string{"C", "A", "B"}
	for _, s := range sites {
		g.AddSite(s, 1e8, 1e-4)
	}
	for i, s := range sites {
		for j := 0; j < 4+2*i; j++ {
			g.AddNode(topology.NodeSpec{
				Name: fmt.Sprintf("%s%d", s, j), Site: s,
				MHz: float64(500 * (1 + (i+j)%3)), FlopsPerCycle: 1,
			})
		}
	}
	return g
}

// TestGreedyMapMatchesReference requires Map to return the reference's
// nodes, pointer for pointer and in order, over seeded shuffled pools
// with down nodes, tied speeds and availabilities, a nil avail, every
// width from 1 to n+2 and both SameSite settings.
func TestGreedyMapMatchesReference(t *testing.T) {
	g := tiedGrid()
	all := g.Nodes()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range all {
			n.SetDown(rng.Intn(5) == 0)
		}
		pool := append([]*topology.Node(nil), all...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:1+rng.Intn(len(pool))]
		var avail func(*topology.Node) float64
		if seed%4 != 0 {
			share := map[*topology.Node]float64{}
			for _, n := range all {
				share[n] = []float64{0.25, 0.5, 1}[rng.Intn(3)]
			}
			avail = func(n *topology.Node) float64 { return share[n] }
		}
		for w := 1; w <= len(pool)+2; w++ {
			for _, same := range []bool{false, true} {
				m := GreedyMapper{Width: w, SameSite: same}
				got, want := m.Map(pool, avail), refGreedyMap(m, pool, avail)
				if (got == nil) != (want == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d %+v: Map = %v, reference %v", seed, m, names(got), names(want))
				}
			}
		}
	}
}

var mapSink []*topology.Node

// BenchmarkGreedyMap is one same-site placement on the 82-node MacroGrid
// with one node down, the shape of a metascheduler placement. It may
// allocate only its result.
func BenchmarkGreedyMap(b *testing.B) {
	g := topology.MacroGrid(simcore.New(1))
	pool := g.Nodes()
	pool[3].SetDown(true)
	avail := func(n *topology.Node) float64 { return n.CPU.Availability() }
	m := GreedyMapper{Width: 8, SameSite: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSink = m.Map(pool, avail)
	}
}

// TestGreedyMapConcurrent maps from several goroutines at once, as
// sharded kernels do, so the race detector sees the shared scratch pool.
func TestGreedyMapConcurrent(t *testing.T) {
	g := tiedGrid()
	pool := g.Nodes()
	done := make(chan struct{})
	for w := 1; w <= 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			m := GreedyMapper{Width: w, SameSite: w%2 == 0}
			want := refGreedyMap(m, pool, nil)
			for i := 0; i < 200; i++ {
				got := m.Map(pool, nil)
				if !slices.Equal(got, want) {
					t.Errorf("width %d: Map = %v, reference %v", w, names(got), names(want))
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
