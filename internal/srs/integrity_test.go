package srs

import (
	"testing"

	"grads/internal/mpi"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// storeRound runs a one-rank world on node that writes one checkpoint and
// waits for it (and its async replica) to land.
func storeRound(p *simcore.Proc, r *rig, node *topology.Node, name, key string, bytes float64) {
	w := mpi.NewWorld(r.sim, r.grid, name, []*topology.Node{node})
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		if err := lib.StoreCheckpoint(key, bytes); err != nil {
			panic("StoreCheckpoint: " + err.Error())
		}
	})
	w.Wait(p)
	p.Sleep(60) // let the lazy buddy-depot replica finish
}

func TestCorruptGenerationFallsBackThroughLineage(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	var marker int
	var ok bool
	r.sim.Spawn("driver", func(p *simcore.Proc) {
		// Epoch 1: a good committed generation.
		storeRound(p, r, a1, "e1", "k", 1e7)
		r.rss.Commit(10, []string{"k"})

		// Epoch 2: written entirely inside a torn-write window, so both the
		// primary blob and its replica land corrupt.
		r.st.SetCorrupting("a1", true)
		r.st.SetCorrupting("a2", true)
		storeRound(p, r, a1, "e2", "k", 1e7)
		r.rss.Commit(20, []string{"k"})
		r.st.SetCorrupting("a1", false)
		r.st.SetCorrupting("a2", false)

		marker, ok = r.rss.PlanRestore()
	})
	r.sim.Run()

	if !ok {
		t.Fatal("PlanRestore found no restorable generation despite intact epoch 1")
	}
	if marker != 10 {
		t.Fatalf("resume marker = %d, want epoch-1 marker 10 (rolled back in lockstep)", marker)
	}
	if r.rss.LineageFallbacks() != 1 {
		t.Fatalf("lineage fallbacks = %d, want 1", r.rss.LineageFallbacks())
	}
	if r.rss.CorruptDetected() == 0 {
		t.Fatal("corrupt epoch-2 blobs were not detected")
	}
	if r.rss.CorruptServed() != 0 {
		t.Fatalf("corrupt reads served = %d, must stay 0", r.rss.CorruptServed())
	}
}

func TestCorruptPrimaryRestoresFromReplica(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	bytes := 1e7
	var marker int
	var ok bool
	var restored float64
	var restoreErr error
	r.sim.Spawn("driver", func(p *simcore.Proc) {
		storeRound(p, r, a1, "w", "k", bytes)
		r.rss.Commit(5, []string{"k"})

		// Rot the primary depot only; the buddy replica stays intact.
		r.st.CorruptAll("a1")

		marker, ok = r.rss.PlanRestore()
		w := mpi.NewWorld(r.sim, r.grid, "restore", []*topology.Node{r.grid.Node("b1")})
		w.Start(func(ctx *mpi.Ctx) {
			lib := Attach(r.rss, ctx)
			restored, restoreErr = lib.RestoreShare(0, 1)
		})
		w.Wait(p)
	})
	r.sim.Run()

	if !ok || marker != 5 {
		t.Fatalf("PlanRestore = (%d, %v), want (5, true): replica should keep the epoch viable", marker, ok)
	}
	if restoreErr != nil {
		t.Fatalf("RestoreShare: %v", restoreErr)
	}
	if restored != bytes {
		t.Fatalf("restored %v bytes, want %v", restored, bytes)
	}
	if r.rss.CorruptDetected() == 0 {
		t.Fatal("rotted primary was never detected")
	}
	if r.rss.CorruptServed() != 0 {
		t.Fatalf("corrupt reads served = %d, must stay 0", r.rss.CorruptServed())
	}
}

func TestUncommittedUnverifiableRestartsFromScratch(t *testing.T) {
	r := newRig()
	a1 := r.grid.Node("a1")
	var intactMarker, marker int
	var intactOK, ok bool
	r.sim.Spawn("driver", func(p *simcore.Proc) {
		// Single-round caller: stores but never commits an epoch.
		storeRound(p, r, a1, "w", "k", 1e7)
		r.rss.resumeMarker = 7
		intactMarker, intactOK = r.rss.PlanRestore()

		// Both copies rot. The legacy path must refuse to resume rather
		// than plan a restore that can only ever read bad bytes.
		r.st.CorruptAll("a1")
		r.st.CorruptAll("a2")
		marker, ok = r.rss.PlanRestore()
	})
	r.sim.Run()

	if !intactOK || intactMarker != 7 {
		t.Fatalf("intact uncommitted state: PlanRestore = (%d, %v), want (7, true)", intactMarker, intactOK)
	}
	if ok || marker != 0 {
		t.Fatalf("rotted uncommitted state: PlanRestore = (%d, %v), want (0, false) scratch restart", marker, ok)
	}
}
