package swap

import (
	"testing"

	"grads/internal/mpi"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// rig: MicroGrid-style testbed — 3 UTK + 3 UIUC nodes; world over all 6.
type rig struct {
	sim   *simcore.Sim
	grid  *topology.Grid
	world *mpi.World
	nodes []*topology.Node
}

func newRig() *rig {
	sim := simcore.New(1)
	g := topology.MicroGridTestbed(sim)
	var nodes []*topology.Node
	for _, n := range g.Site("UTK").Nodes() {
		nodes = append(nodes, n)
	}
	for _, n := range g.Site("UIUC").Nodes() {
		nodes = append(nodes, n)
	}
	return &rig{sim: sim, grid: g, world: mpi.NewWorld(sim, g, "nbody", nodes), nodes: nodes}
}

// iterBody is a trivial compute+allreduce iteration.
func iterBody(flops float64) Body {
	return func(ctx *mpi.Ctx, comm *mpi.Comm, vrank, iter int) error {
		if err := ctx.Compute(flops); err != nil {
			return err
		}
		_, err := comm.Allreduce(ctx, 1e3, nil, nil)
		return err
	}
}

func TestRunWithoutSwapsCompletes(t *testing.T) {
	r := newRig()
	rt := NewRuntime(r.world, 3, 1e6)
	rt.Run(r.sim, iterBody(1e8), 10)
	r.sim.Run()
	if r.world.Running() != 0 {
		t.Fatalf("%d processes still running (inactive pool not dismissed?)", r.world.Running())
	}
	prog := rt.Progress()
	if len(prog) != 10 || prog[9].Iter != 10 {
		t.Fatalf("progress = %v", prog)
	}
	if rt.Swaps() != 0 {
		t.Fatalf("spurious swaps: %d", rt.Swaps())
	}
	if r.world.Err() != nil {
		t.Fatalf("world error: %v", r.world.Err())
	}
}

func TestManualSwapMovesRole(t *testing.T) {
	r := newRig()
	rt := NewRuntime(r.world, 3, 1e6)
	// After ~3 iterations, move virtual rank 1 to phys 4 (a UIUC node).
	r.sim.Schedule(1.0, func() {
		if err := rt.RequestSwap(1, 4); err != nil {
			t.Errorf("RequestSwap: %v", err)
		}
	})
	rt.Run(r.sim, iterBody(1e8), 12)
	r.sim.Run()
	if r.world.Err() != nil {
		t.Fatalf("world error: %v", r.world.Err())
	}
	if rt.Swaps() != 1 {
		t.Fatalf("swaps = %d, want 1", rt.Swaps())
	}
	if got := rt.comm.Phys(1); got != 4 {
		t.Fatalf("vrank 1 now at phys %d, want 4", got)
	}
	// The old phys 1 is inactive again; total progress completes.
	inact := rt.InactivePhys()
	found := false
	for _, p := range inact {
		if p == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("phys 1 not returned to inactive pool: %v", inact)
	}
	if prog := rt.Progress(); len(prog) == 0 || prog[len(prog)-1].Iter != 12 {
		t.Fatalf("app did not finish all iterations: %v", prog)
	}
	if r.world.Running() != 0 {
		t.Fatalf("%d processes leaked", r.world.Running())
	}
}

func TestSwapImprovesProgressUnderLoad(t *testing.T) {
	run := func(withSwap bool) float64 {
		r := newRig()
		rt := NewRuntime(r.world, 3, 1e6)
		// Load all three UTK nodes at t=2 (heavy competing load).
		r.sim.Schedule(2, func() {
			for _, n := range r.grid.Site("UTK").Nodes() {
				n.CPU.SetExternalLoad(4)
			}
		})
		if withSwap {
			// Swap all three actives to the free UIUC nodes at t=4.
			r.sim.Schedule(4, func() {
				rt.RequestSwap(0, 3)
				rt.RequestSwap(1, 4)
				rt.RequestSwap(2, 5)
			})
		}
		rt.Run(r.sim, iterBody(2e8), 30)
		end := r.sim.Run()
		if r.world.Err() != nil {
			t.Fatalf("world error: %v", r.world.Err())
		}
		return end
	}
	loaded := run(false)
	swapped := run(true)
	if swapped >= loaded {
		t.Fatalf("swapping (%.1fs) did not beat staying loaded (%.1fs)", swapped, loaded)
	}
}

func TestRequestSwapValidation(t *testing.T) {
	r := newRig()
	rt := NewRuntime(r.world, 3, 0)
	if err := rt.RequestSwap(7, 4); err == nil {
		t.Fatal("out-of-range vrank accepted")
	}
	if err := rt.RequestSwap(0, 1); err == nil {
		t.Fatal("swap to an active phys accepted")
	}
	if err := rt.RequestSwap(0, 4); err != nil {
		t.Fatalf("valid swap rejected: %v", err)
	}
	if err := rt.RequestSwap(0, 5); err == nil {
		t.Fatal("conflicting vrank accepted")
	}
	if err := rt.RequestSwap(1, 4); err == nil {
		t.Fatal("conflicting target accepted")
	}
}

func TestGreedyPolicy(t *testing.T) {
	p := GreedyPolicy{Gain: 1.5}
	active := []Candidate{
		{Phys: 0, VRank: 0, Speed: 100},
		{Phys: 1, VRank: 1, Speed: 20}, // slow
		{Phys: 2, VRank: 2, Speed: 90},
	}
	inactive := []Candidate{
		{Phys: 3, VRank: -1, Speed: 80},
		{Phys: 4, VRank: -1, Speed: 25},
	}
	orders := p.Decide(active, inactive)
	if len(orders) != 1 || orders[0].VRank != 1 || orders[0].ToPhys != 3 {
		t.Fatalf("orders = %+v, want slowest active -> fastest inactive", orders)
	}
	// No inactive fast enough: no orders.
	if got := p.Decide(active, []Candidate{{Phys: 3, Speed: 25}}); len(got) != 0 {
		t.Fatalf("marginal swap ordered: %+v", got)
	}
}

func TestThresholdPolicy(t *testing.T) {
	p := ThresholdPolicy{Fraction: 0.5}
	active := []Candidate{
		{Phys: 0, VRank: 0, Speed: 100},
		{Phys: 1, VRank: 1, Speed: 10}, // below half the median
		{Phys: 2, VRank: 2, Speed: 95},
	}
	inactive := []Candidate{{Phys: 5, VRank: -1, Speed: 60}}
	orders := p.Decide(active, inactive)
	if len(orders) != 1 || orders[0].VRank != 1 || orders[0].ToPhys != 5 {
		t.Fatalf("orders = %+v", orders)
	}
	if got := (NonePolicy{}).Decide(active, inactive); got != nil {
		t.Fatalf("NonePolicy decided %+v", got)
	}
}

func TestGangPolicyMovesWholeActiveSet(t *testing.T) {
	site := map[int]string{0: "UTK", 1: "UTK", 2: "UTK", 3: "UIUC", 4: "UIUC", 5: "UIUC"}
	p := GangPolicy{Gain: 1.2, SiteOf: func(phys int) string { return site[phys] }}
	active := []Candidate{
		{Phys: 0, VRank: 0, Speed: 2.2e8},
		{Phys: 1, VRank: 1, Speed: 0.73e8}, // loaded: paces the gang
		{Phys: 2, VRank: 2, Speed: 2.2e8},
	}
	inactive := []Candidate{
		{Phys: 3, VRank: -1, Speed: 1.8e8},
		{Phys: 4, VRank: -1, Speed: 1.8e8},
		{Phys: 5, VRank: -1, Speed: 1.8e8},
	}
	orders := p.Decide(active, inactive)
	if len(orders) != 3 {
		t.Fatalf("gang policy moved %d ranks, want all 3: %+v", len(orders), orders)
	}
	targets := map[int]bool{}
	for _, o := range orders {
		if site[o.ToPhys] != "UIUC" {
			t.Fatalf("order %+v not to UIUC", o)
		}
		if targets[o.ToPhys] {
			t.Fatalf("duplicate target in %+v", orders)
		}
		targets[o.ToPhys] = true
	}
	// Healthy gang: no orders (UIUC lock-step 5.4e8 < UTK 6.6e8).
	active[1].Speed = 2.2e8
	if got := p.Decide(active, inactive); len(got) != 0 {
		t.Fatalf("healthy gang moved: %+v", got)
	}
	// Destination site too small for the gang: no orders.
	if got := p.Decide(active, inactive[:2]); len(got) != 0 {
		t.Fatalf("undersized site accepted: %+v", got)
	}
}

func TestDaemonSwapsLoadedNode(t *testing.T) {
	r := newRig()
	rt := NewRuntime(r.world, 3, 1e6)
	StartDaemon(r.sim, rt, GreedyPolicy{Gain: 1.5}, 5, NodeSpeed(r.nodes))
	// Load one UTK node at t=8; daemon should move its rank to a UIUC node.
	r.sim.Schedule(8, func() { r.grid.Node("utk2").CPU.SetExternalLoad(4) })
	rt.Run(r.sim, iterBody(3e8), 40)
	r.sim.RunUntil(600)
	if rt.Swaps() == 0 {
		t.Fatal("daemon never swapped the loaded node")
	}
	for _, phys := range rt.ActivePhys() {
		if r.nodes[phys].Name() == "utk2" {
			t.Fatal("loaded node still active after daemon swaps")
		}
	}
}
