package srs

import (
	"math"
	"testing"

	"grads/internal/ibp"
	"grads/internal/mpi"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// rig builds a 2-site grid (4 nodes at A, 4 at B), IBP depots everywhere,
// and an RSS.
type rig struct {
	sim  *simcore.Sim
	grid *topology.Grid
	st   *ibp.System
	rss  *RSS
}

func newRig() *rig {
	sim := simcore.New(1)
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e8, 1e-4)
	g.AddSite("B", 1e8, 1e-4)
	g.Connect("A", "B", 1.25e6, 0.011)
	for i := 0; i < 4; i++ {
		g.AddNode(topology.NodeSpec{Name: "a" + string(rune('1'+i)), Site: "A", MHz: 933, FlopsPerCycle: 0.5})
		g.AddNode(topology.NodeSpec{Name: "b" + string(rune('1'+i)), Site: "B", MHz: 450, FlopsPerCycle: 0.4})
	}
	st := ibp.New(sim, g)
	st.AddDepotsEverywhere()
	return &rig{sim: sim, grid: g, st: st, rss: NewRSS(sim, st, "qr")}
}

func siteNodes(g *topology.Grid, site string) []*topology.Node {
	return g.Site(site).Nodes()
}

func TestCheckpointStopRestartCycle(t *testing.T) {
	r := newRig()
	nodesA := siteNodes(r.grid, "A")
	w1 := mpi.NewWorld(r.sim, r.grid, "run1", nodesA)
	perRank := 1e7

	// Run 1: each rank works until stop is requested, then checkpoints.
	w1.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		for i := 0; ; i++ {
			if lib.NeedStop() {
				key := "A.rank" + string(rune('0'+ctx.PhysRank()))
				if err := lib.StoreCheckpoint(key, perRank); err != nil {
					t.Errorf("StoreCheckpoint: %v", err)
				}
				r.rss.resumeMarker = i
				lib.AckStopped()
				return
			}
			if err := ctx.Compute(1e8); err != nil {
				return
			}
		}
	})
	r.sim.Schedule(5, func() { r.rss.RequestStop(4) })

	var restartBytes float64
	var marker int
	r.sim.Spawn("manager", func(p *simcore.Proc) {
		if err := r.rss.WaitAllStopped(p); err != nil {
			t.Errorf("WaitAllStopped: %v", err)
			return
		}
		marker = r.rss.ResumeMarker()
		r.rss.ClearStop()
		// Run 2 on the other site with twice the processes (N -> M).
		nodesB := siteNodes(r.grid, "B")
		w2 := mpi.NewWorld(r.sim, r.grid, "run2", nodesB)
		w2.Start(func(ctx *mpi.Ctx) {
			lib := Attach(r.rss, ctx)
			n, err := lib.RestoreShare(ctx.PhysRank(), 4)
			if err != nil {
				t.Errorf("RestoreShare: %v", err)
			}
			restartBytes += n
		})
		w2.Wait(p)
	})
	r.sim.Run()

	if marker <= 0 {
		t.Fatalf("resume marker = %d, want progress before stop", marker)
	}
	total := 0.0
	for _, c := range r.rss.Checkpoints() {
		total += c.Bytes
	}
	if total != 4*perRank {
		t.Fatalf("registered checkpoint bytes = %v, want %v", total, 4*perRank)
	}
	// Every new rank read 1/4 of each of the 4 blobs: total re-read = all.
	if math.Abs(restartBytes-4*perRank) > 1 {
		t.Fatalf("restored %v bytes, want %v", restartBytes, 4*perRank)
	}
	if r.rss.Migrations() != 1 {
		t.Fatalf("migrations = %d", r.rss.Migrations())
	}
}

func TestCheckpointWriteLocalCheapReadRemoteExpensive(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	b1 := r.grid.Node("b1")
	wA := mpi.NewWorld(r.sim, r.grid, "w", []*topology.Node{a1, b1})
	bytes := 8e7 // 80 MB

	var writeT, readT float64
	wA.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		switch ctx.PhysRank() {
		case 0:
			if err := lib.StoreCheckpoint("blob", bytes); err != nil {
				t.Errorf("store: %v", err)
			}
			writeT = lib.CheckpointWriteTime()
		case 1:
			// Wait for the writer, then pull the whole blob across the WAN.
			ctx.Proc().Sleep(10)
			if _, err := lib.RestoreShare(0, 1); err != nil {
				t.Errorf("restore: %v", err)
			}
			readT = lib.CheckpointReadTime()
		}
	})
	r.sim.Run()
	// Write: 80 MB to local disk at 40 MB/s = 2 s.
	if math.Abs(writeT-2) > 0.01 {
		t.Fatalf("write time = %v, want 2", writeT)
	}
	// Read: 2 s disk + 80 MB over 1.25 MB/s WAN = ~66 s.
	if readT < 30 {
		t.Fatalf("read time = %v, want WAN-dominated (>30s)", readT)
	}
}

func TestDropCheckpoints(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	w := mpi.NewWorld(r.sim, r.grid, "w", []*topology.Node{a1})
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		lib.StoreCheckpoint("x", 1000)
	})
	r.sim.Run()
	if len(r.rss.Checkpoints()) != 1 {
		t.Fatal("checkpoint not registered")
	}
	r.rss.DropCheckpoints()
	if len(r.rss.Checkpoints()) != 0 {
		t.Fatal("DropCheckpoints left registry entries")
	}
	if _, ok := r.st.Size("a1", r.rss.blobKey("x", 1)); ok {
		t.Fatal("DropCheckpoints left depot data")
	}
}

func TestRestoreShareBadProcs(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	w := mpi.NewWorld(r.sim, r.grid, "w", []*topology.Node{a1})
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		if _, err := lib.RestoreShare(0, 0); err == nil {
			t.Error("RestoreShare accepted 0 procs")
		}
	})
	r.sim.Run()
}

func TestStopOnlyAfterRequest(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	w := mpi.NewWorld(r.sim, r.grid, "w", []*topology.Node{a1})
	checks := 0
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		for i := 0; i < 5; i++ {
			if lib.NeedStop() {
				t.Error("NeedStop true without a request")
			}
			checks++
			ctx.Compute(1e6)
		}
	})
	r.sim.Run()
	if checks != 5 {
		t.Fatalf("app did not run to completion: %d checks", checks)
	}
}
