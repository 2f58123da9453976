package apps

import (
	"math"
	"math/rand"
	"testing"

	"grads/internal/binder"
	"grads/internal/core"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/topology"
)

// qrRig wires the QR testbed with storage, GIS, binder and RSS.
type qrRig struct {
	sim  *simcore.Sim
	grid *topology.Grid
	rss  *srs.RSS
	qr   *QR
}

func newQRRig(t testing.TB, n, nb int) *qrRig {
	t.Helper()
	sim := simcore.New(1)
	grid := topology.QRTestbed(sim)
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	g := gis.New(sim, grid)
	g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
	for _, lib := range []string{"scalapack", "blas", "srs", "autopilot"} {
		g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
	}
	b := binder.New(sim, g)
	rss := srs.NewRSS(sim, st, "qr")
	qr, err := NewQR(grid, rss, b, n, nb)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	return &qrRig{sim: sim, grid: grid, rss: rss, qr: qr}
}

func TestQRModelMatchesAnalyticFlops(t *testing.T) {
	r := newQRRig(t, 4000, 100)
	total := 0.0
	for k := 0; k < r.qr.Panels(); k++ {
		total += r.qr.panelFlops(k)
	}
	want := 4.0 / 3.0 * 4000 * 4000 * 4000
	if math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("panel flops sum %v, want %v", total, want)
	}
	if r.qr.CheckpointBytes() != (4000*4000+4000)*8 {
		t.Fatalf("checkpoint bytes = %v", r.qr.CheckpointBytes())
	}
}

func TestQRMapperPrefersUnloadedUTK(t *testing.T) {
	r := newQRRig(t, 4000, 100)
	nodes := r.qr.Mapper().Map(r.grid.Nodes(), func(n *topology.Node) float64 {
		return n.CPU.Availability()
	})
	if len(nodes) != 4 {
		t.Fatalf("mapper chose %d nodes, want the 4 UTK nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.Site().Name != "UTK" {
			t.Fatalf("mapper chose %s, want UTK only", n.Name())
		}
	}
	// With UTK loaded, the mapper flips to UIUC.
	for _, n := range r.grid.Site("UTK").Nodes() {
		n.CPU.SetExternalLoad(2)
	}
	nodes = r.qr.Mapper().Map(r.grid.Nodes(), func(n *topology.Node) float64 {
		return n.CPU.Availability()
	})
	if len(nodes) != 8 || nodes[0].Site().Name != "UIUC" {
		t.Fatalf("loaded mapper chose %d nodes at %s, want 8 UIUC", len(nodes), nodes[0].Site().Name)
	}
}

func TestQRRunToCompletion(t *testing.T) {
	r := newQRRig(t, 1000, 100)
	utk := r.grid.Site("UTK").Nodes()
	var rep struct {
		dur     float64
		stopped bool
	}
	r.sim.Spawn("mgr", func(p *simcore.Proc) {
		rr, err := r.qr.Run(p, utk, false)
		if err != nil {
			t.Errorf("Run: %v", err)
			return
		}
		rep.dur, rep.stopped = rr.Duration, rr.Stopped
	})
	r.sim.Run()
	if rep.stopped {
		t.Fatal("unforced run reported stopped")
	}
	// Sanity: duration within 3x of the pure compute lower bound
	// (4 UTK nodes at 933 MHz x 0.15 sustained flops/cycle).
	lower := 4.0 / 3.0 * 1e9 / (4 * 933e6 * 0.15)
	if rep.dur < lower*0.9 || rep.dur > lower*3 {
		t.Fatalf("duration %v implausible vs compute bound %v", rep.dur, lower)
	}
	if r.qr.DonePanels() != r.qr.Panels() {
		t.Fatalf("done %d of %d panels", r.qr.DonePanels(), r.qr.Panels())
	}
}

func TestQRStopCheckpointRestartPreservesProgress(t *testing.T) {
	r := newQRRig(t, 2000, 100)
	utk := r.grid.Site("UTK").Nodes()
	uiuc := r.grid.Site("UIUC").Nodes()
	var totalPanels int
	r.sim.Spawn("mgr", func(p *simcore.Proc) {
		// Ask for a stop mid-run.
		r.sim.Schedule(2, func() { r.rss.RequestStop(len(utk)) })
		rr, err := r.qr.Run(p, utk, false)
		if err != nil {
			t.Errorf("segment 1: %v", err)
			return
		}
		if !rr.Stopped {
			t.Error("segment 1 did not stop on request")
			return
		}
		if rr.CkptWrite <= 0 {
			t.Error("no checkpoint write time recorded")
		}
		mid := r.qr.DonePanels()
		if mid <= 0 || mid >= r.qr.Panels() {
			t.Errorf("stop at panel %d of %d", mid, r.qr.Panels())
		}
		r.rss.ClearStop()
		rr2, err := r.qr.Run(p, uiuc, true)
		if err != nil {
			t.Errorf("segment 2: %v", err)
			return
		}
		if rr2.Stopped {
			t.Error("segment 2 stopped unexpectedly")
		}
		if rr2.CkptRead <= 0 {
			t.Error("restart did not read checkpoints")
		}
		totalPanels = r.qr.DonePanels()
	})
	r.sim.Run()
	if totalPanels != r.qr.Panels() {
		t.Fatalf("restart finished %d of %d panels", totalPanels, r.qr.Panels())
	}
}

func TestQRContractSensorsReactToLoad(t *testing.T) {
	r := newQRRig(t, 3000, 100)
	utk := r.grid.Site("UTK").Nodes()
	r.sim.Spawn("mgr", func(p *simcore.Proc) { r.qr.Run(p, utk, false) })
	var healthyRatio, loadedRatio float64
	sample := func(out *float64) func() {
		return func() {
			a, okA := r.qr.ActualPanelSensor()()
			pr, okP := r.qr.PredictedPanelSensor()()
			if okA && okP && pr > 0 {
				*out = a / pr
			}
		}
	}
	// Panels take ~6.5s each on the calibrated testbed, and the warm-up
	// panel is skipped by the sensors: sample after the second completes,
	// load the node, then sample a loaded panel.
	r.sim.Schedule(15, sample(&healthyRatio))
	r.sim.Schedule(16, func() { r.grid.Node("utk1").CPU.SetExternalLoad(2) })
	r.sim.Schedule(60, sample(&loadedRatio))
	r.sim.Run()
	if healthyRatio <= 0 || math.Abs(healthyRatio-1) > 0.5 {
		t.Fatalf("healthy ratio = %v, want ~1", healthyRatio)
	}
	if loadedRatio < 2 {
		t.Fatalf("loaded ratio = %v, want ~3 (one node at 1/3 speed paces all)", loadedRatio)
	}
}

func TestQRBadParams(t *testing.T) {
	r := newQRRig(t, 100, 10)
	if _, err := NewQR(r.grid, r.rss, nil, 0, 10); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewQR(r.grid, r.rss, nil, 100, 200); err == nil {
		t.Fatal("nb>n accepted")
	}
}

func TestNBodyCosts(t *testing.T) {
	nb := NewNBody(4000, 100)
	if nb.IterFlops() != 20*4000*4000 {
		t.Fatalf("IterFlops = %v", nb.IterFlops())
	}
	if nb.PositionBytes(4) != 4000*24/4 {
		t.Fatalf("PositionBytes = %v", nb.PositionBytes(4))
	}
	if nb.StateBytes(4) != 4000*56/4 {
		t.Fatalf("StateBytes = %v", nb.StateBytes(4))
	}
}

func TestEMANWorkflowShape(t *testing.T) {
	w, err := EMANWorkflow(3000, 8)
	if err != nil {
		t.Fatalf("EMANWorkflow: %v", err)
	}
	if w.Len() != 6 {
		t.Fatalf("EMAN has %d components, want 6", w.Len())
	}
	names := []string{"proc3d", "project3d", "classesbymra", "classalign2", "make3d", "eotest"}
	for i, c := range w.Components {
		if c.Name != names[i] {
			t.Fatalf("component %d = %s, want %s", i, c.Name, names[i])
		}
		if i > 0 {
			deps := w.Deps(i)
			if len(deps) != 1 || deps[0] != i-1 {
				t.Fatalf("EMAN chain broken at %s: deps %v", c.Name, deps)
			}
		}
	}
	// classesbymra dominates (the refinement hot spot).
	mra := w.Components[2].Model.FlopsAt(3000)
	for i, c := range w.Components {
		if i != 2 && c.Model.FlopsAt(3000) >= mra {
			t.Fatalf("%s flops >= classesbymra", c.Name)
		}
	}
	// Expansion splits the two parallel stages.
	ex := w.Expand()
	if ex.Len() != 4+2*8 {
		t.Fatalf("expanded EMAN has %d components, want 20", ex.Len())
	}
	if _, err := EMANWorkflow(0, 4); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestRandomWorkflowShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, err := RandomWorkflow(rng, 4, 5, 3)
	if err != nil {
		t.Fatalf("RandomWorkflow: %v", err)
	}
	if w.Len() != 20 {
		t.Fatalf("len = %d, want 20", w.Len())
	}
	levels := w.Levels()
	if len(levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(levels))
	}
	// Determinism for a fixed seed.
	w2, _ := RandomWorkflow(rand.New(rand.NewSource(5)), 4, 5, 3)
	for i := range w.Components {
		if w.Components[i].OutputBytes != w2.Components[i].OutputBytes {
			t.Fatal("RandomWorkflow not deterministic for fixed seed")
		}
	}
	if _, err := RandomWorkflow(rng, 0, 5, 1); err == nil {
		t.Fatal("bad shape accepted")
	}
	// Schedulable on a grid.
	g := topology.MacroGrid(simcore.New(1))
	s := core.NewScheduler(g, nil)
	sched, err := s.Schedule(w, g.Nodes())
	if err != nil || sched.Makespan <= 0 {
		t.Fatalf("random workflow unschedulable: %v", err)
	}
}
