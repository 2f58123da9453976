package metasched

import (
	"fmt"
	"testing"

	"grads/internal/topology"
)

// TestReclaimDuringInFlightPreemption: a preemption order names a keep set,
// but before the victim applies the shrink, one kept node and one to-be-freed
// node crash. The shrink must converge to the live subset of the keep set,
// never resurrect the crashed nodes, and leave the ownership accounting
// consistent enough for the freed nodes to be granted onward.
func TestReclaimDuringInFlightPreemption(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())

	l, err := lm.Grant("victim", nodes[:4])
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	// The broker decides to shrink the victim to nodes[:2] (the preempt
	// order is now "in flight": the victim still has to checkpoint and stop
	// before the shrink is applied).
	keep := nodes[:2]

	// While the order is in flight, a kept node and a doomed node crash and
	// are reclaimed by the topology watcher.
	r.sim.At(10, func() { r.grid.SetNodeDown(nodes[1].Name(), true) })
	r.sim.At(10, func() { r.grid.SetNodeDown(nodes[3].Name(), true) })
	// The victim's stop completes at t=20 and the shrink is applied with the
	// now-stale keep set.
	var freed []*topology.Node
	r.sim.At(20, func() { freed = lm.Shrink(l, keep) })
	r.sim.Run()

	if lm.reclaimed != 2 {
		t.Fatalf("reclaimed = %d, want 2", lm.reclaimed)
	}
	// The lease must hold exactly the live kept node.
	if l.Size() != 1 || l.Nodes()[0] != nodes[0] {
		t.Fatalf("lease holds %v, want [%s]", l.Nodes(), nodes[0].Name())
	}
	// The shrink freed only the live non-kept node; the crashed ones were
	// already reclaimed and must not be handed back to the broker.
	if len(freed) != 1 || freed[0] != nodes[2] {
		t.Fatalf("shrink freed %v, want [%s]", freed, nodes[2].Name())
	}
	if lm.leasedNow != l.Size() {
		t.Fatalf("leasedNodes = %d, lease size = %d", lm.leasedNow, l.Size())
	}
	// Crashed nodes stay out of the free pool; the freed node is grantable.
	for _, n := range lm.Free(nil, nodes) {
		if n.Down() {
			t.Fatalf("down node %s in free pool", n.Name())
		}
	}
	if _, err := lm.Grant("beneficiary", freed); err != nil {
		t.Fatalf("granting shrink-freed node: %v", err)
	}
	lm.Release(l)
	if lm.leasedNow != 1 {
		t.Fatalf("leasedNodes = %d after release, want 1 (beneficiary)", lm.leasedNow)
	}
}

// TestCrashDuringShrinkUnderPartition: a node crashes while a preemption
// shrink is in flight AND the grid is WAN-partitioned. The partition is a
// network event and must not touch lease state; the crash must be
// reclaimed exactly once even when reported twice (e.g. a storm plus the
// detector sweep both observing it); the late shrink converges on the live
// subset; and the busy-node-seconds integral must balance against the
// piecewise lease-size timeline to the second.
func TestCrashDuringShrinkUnderPartition(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())
	utk := nodes[len(nodes)-4:] // utk1..utk4 sort after uiuc*
	l, err := lm.Grant("victim", utk)
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	keep := utk[:2]

	// t=10: the WAN partitions. Leases are broker-side state, not flows.
	r.sim.At(10, func() {
		wan := r.grid.Net.Link("wan:UIUC|UTK")
		if wan == nil {
			t.Error("no wan:UIUC|UTK link in the QR testbed")
			return
		}
		r.grid.Net.SetLinkDown(wan, true)
		if err := lm.Audit(); err != nil {
			t.Errorf("audit after partition: %v", err)
		}
		if l.Size() != 4 {
			t.Errorf("partition changed lease size to %d", l.Size())
		}
	})
	// t=15: a kept node crashes mid-partition, and the crash is reported
	// twice within the same instant.
	r.sim.At(15, func() { r.grid.SetNodeDown(keep[1].Name(), true) })
	r.sim.At(15, func() { r.grid.SetNodeDown(keep[1].Name(), true) })
	// t=20: the victim's stop completes and the stale shrink is applied.
	var freed []*topology.Node
	r.sim.At(20, func() {
		freed = lm.Shrink(l, keep)
		if err := lm.Audit(); err != nil {
			t.Errorf("audit after shrink: %v", err)
		}
	})
	// t=30: the partition heals; again no lease movement.
	r.sim.At(30, func() {
		r.grid.Net.SetLinkDown(r.grid.Net.Link("wan:UIUC|UTK"), false)
	})
	r.sim.RunUntil(40)

	if lm.reclaimed != 1 {
		t.Fatalf("crash under partition reclaimed %d times, want exactly 1", lm.reclaimed)
	}
	if l.Size() != 1 || l.Nodes()[0] != keep[0] {
		t.Fatalf("lease holds %v, want [%s]", l.Nodes(), keep[0].Name())
	}
	if len(freed) != 2 {
		t.Fatalf("shrink freed %d nodes, want the 2 live non-kept ones", len(freed))
	}
	if err := lm.Audit(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
	// Busy integral: 4 nodes over [0,15), 3 over [15,20), 1 over [20,40].
	want := 4*15.0 + 3*5.0 + 1*20.0
	if got := lm.BusyNodeSeconds(); got != want {
		t.Fatalf("busy node-seconds = %v, want %v", got, want)
	}
}

// TestDoubleCrashSameNodeWithinOneTick: the same node crashing twice at one
// virtual instant — both the degenerate repeat (already down) and the
// crash/recover/crash sequence — must reclaim the node from its lease
// exactly once and keep the accounting consistent.
func TestDoubleCrashSameNodeWithinOneTick(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())

	l, err := lm.Grant("a", nodes[:4])
	if err != nil {
		t.Fatalf("grant: %v", err)
	}

	// Two crash events for the same node at the same instant: the second is
	// a state no-op and must not re-reclaim.
	r.sim.At(10, func() { r.grid.SetNodeDown(nodes[0].Name(), true) })
	r.sim.At(10, func() { r.grid.SetNodeDown(nodes[0].Name(), true) })
	r.sim.RunUntil(11)
	if lm.reclaimed != 1 {
		t.Fatalf("double crash reclaimed %d times, want 1", lm.reclaimed)
	}
	if l.Size() != 3 || lm.leasedNow != 3 {
		t.Fatalf("lease %d leased %d after double crash, want 3/3", l.Size(), lm.leasedNow)
	}

	// Crash, recover, and crash again within one tick. The recovery returns
	// the node to the free pool — not to the lease it was reclaimed from —
	// so the second crash finds it unleased and reclaims nothing.
	r.sim.At(20, func() { r.grid.SetNodeDown(nodes[1].Name(), true) })
	r.sim.At(20, func() { r.grid.SetNodeDown(nodes[1].Name(), false) })
	r.sim.At(20, func() { r.grid.SetNodeDown(nodes[1].Name(), true) })
	r.sim.RunUntil(21)
	if lm.reclaimed != 2 {
		t.Fatalf("crash/recover/crash reclaimed %d times, want 2", lm.reclaimed)
	}
	if l.Size() != 2 || lm.leasedNow != 2 {
		t.Fatalf("lease %d leased %d, want 2/2", l.Size(), lm.leasedNow)
	}
	// The twice-crashed node is down and must not be grantable or free.
	if !nodes[1].Down() {
		t.Fatal("node should have ended the tick down")
	}
	for _, n := range lm.Free(nil, nodes) {
		if n == nodes[0] || n == nodes[1] {
			t.Fatalf("crashed node %s in free pool", n.Name())
		}
	}
	if _, err := lm.Grant("b", nodes[1:2]); err == nil {
		t.Fatal("grant of a down node accepted")
	}

	// Recover for good: the node becomes free and grantable again, while the
	// original lease stays shrunk.
	r.sim.At(30, func() { r.grid.SetNodeDown(nodes[1].Name(), false) })
	r.sim.RunUntil(31)
	if _, err := lm.Grant("b", nodes[1:2]); err != nil {
		t.Fatalf("grant of recovered node: %v", err)
	}
	if l.Size() != 2 {
		t.Fatalf("recovery changed the victim lease to %d nodes", l.Size())
	}
}

// TestAuditReportsLowestLeaseFirst: with two leases each holding a node
// that went down behind the crash watcher's back, Audit names the
// lower-ID lease's violation every time, not whichever one map order
// reached first.
func TestAuditReportsLowestLeaseFirst(t *testing.T) {
	r := newRig(1)
	lm := NewLeaseManager(r.sim, r.grid)
	nodes := sortedByName(r.grid.Nodes())
	a, errA := lm.Grant("a", nodes[:2])
	b, errB := lm.Grant("b", nodes[2:4])
	if errA != nil || errB != nil {
		t.Fatalf("grant: %v, %v", errA, errB)
	}
	// Node.SetDown bypasses Grid.SetNodeDown, so no reclaim runs.
	a.nodes[1].SetDown(true)
	b.nodes[0].SetDown(true)
	want := fmt.Sprintf("lease audit: down node %s still held by lease %d (reclaim lost)", a.nodes[1].Name(), a.ID)
	for i := 0; i < 50; i++ {
		if err := lm.Audit(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Audit() = %v, want %q", i, err, want)
		}
	}
}
