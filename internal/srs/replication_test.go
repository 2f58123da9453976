package srs

import (
	"testing"

	"grads/internal/mpi"
)

// storeOne runs a one-rank world on node aIdx of site A that writes one
// checkpoint of the given size.
func storeOne(t *testing.T, r *rig, key string, bytes float64) {
	t.Helper()
	w := mpi.NewWorld(r.sim, r.grid, "writer", siteNodes(r.grid, "A")[:1])
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		if err := lib.StoreCheckpoint(key, bytes); err != nil {
			t.Errorf("StoreCheckpoint: %v", err)
		}
	})
	r.sim.Run() // drains the async replica data mover too
}

func TestCheckpointReplicatedToBuddyDepot(t *testing.T) {
	r := newRig()
	storeOne(t, r, "k0", 1e7)
	cks := r.rss.Checkpoints()
	if len(cks) != 1 {
		t.Fatalf("%d checkpoints registered, want 1", len(cks))
	}
	c := cks[0]
	if c.Replica == nil {
		t.Fatal("no replica attached after the data mover drained")
	}
	if c.Replica == c.Depot {
		t.Fatal("replica landed on the primary depot")
	}
	if c.Replica.Site() != c.Depot.Site() {
		t.Fatalf("replica on %s, want a same-site LAN buddy", c.Replica.Name())
	}
	if sz, ok := r.st.Size(c.Replica.Name(), r.rss.blobKey("k0", c.Epoch)); !ok || sz != 1e7 {
		t.Fatalf("replica blob = %v, %v; want the full 1e7 bytes", sz, ok)
	}
	if !r.st.Verify(c.Replica.Name(), r.rss.blobKey("k0", c.Epoch), c.Sum) {
		t.Fatal("replica blob does not verify against the writer checksum")
	}
}

func TestRestoreFallsBackToReplicaWhenPrimaryDown(t *testing.T) {
	r := newRig()
	storeOne(t, r, "k0", 1e7)
	primary := r.rss.Checkpoints()[0].Depot

	// The checkpoint holder crashes; a new world on site B restores.
	primary.SetDown(true)
	var restored float64
	w := mpi.NewWorld(r.sim, r.grid, "restarter", siteNodes(r.grid, "B")[:1])
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		n, err := lib.RestoreShare(0, 1)
		if err != nil {
			t.Errorf("RestoreShare with primary down: %v", err)
		}
		restored = n
	})
	r.sim.Run()
	if restored != 1e7 {
		t.Fatalf("restored %v bytes from the replica, want 1e7", restored)
	}
}

func TestRestoreFailsWithoutReplication(t *testing.T) {
	r := newRig()
	r.rss.replicate = false
	storeOne(t, r, "k0", 1e7)
	if c := r.rss.Checkpoints()[0]; c.Replica != nil {
		t.Fatal("replica created with replication off")
	}
	r.rss.Checkpoints()[0].Depot.SetDown(true)
	w := mpi.NewWorld(r.sim, r.grid, "restarter", siteNodes(r.grid, "B")[:1])
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		if _, err := lib.RestoreShare(0, 1); err == nil {
			t.Error("RestoreShare succeeded with the only copy unreachable")
		}
	})
	r.sim.Run()
}

// TestStaleReplicaInvalidated: re-writing a key while its replica copy is
// still in flight must not leave the old epoch's bytes as the registered
// replica.
func TestStaleReplicaInvalidated(t *testing.T) {
	r := newRig()
	w := mpi.NewWorld(r.sim, r.grid, "writer", siteNodes(r.grid, "A")[:1])
	w.Start(func(ctx *mpi.Ctx) {
		lib := Attach(r.rss, ctx)
		if err := lib.StoreCheckpoint("k0", 1e7); err != nil {
			t.Errorf("first StoreCheckpoint: %v", err)
		}
		// Overwrite immediately: the first epoch's data mover is still
		// copying when this lands.
		if err := lib.StoreCheckpoint("k0", 2e7); err != nil {
			t.Errorf("second StoreCheckpoint: %v", err)
		}
	})
	r.sim.Run()
	c := r.rss.Checkpoints()[0]
	if c.Bytes != 2e7 {
		t.Fatalf("registered %v bytes, want the second epoch's 2e7", c.Bytes)
	}
	if c.Replica == nil {
		t.Fatal("no replica after both movers drained")
	}
	if sz, ok := r.st.Size(c.Replica.Name(), r.rss.blobKey("k0", c.Epoch)); !ok || sz != 2e7 {
		t.Fatalf("replica blob = %v, %v; want the fresh 2e7-byte copy", sz, ok)
	}
}
