package mpi

import (
	"math"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

// testWorld builds a 2-site grid and a world with np ranks spread across it.
func testWorld(t *testing.T, sim *simcore.Sim, np int) (*topology.Grid, *World) {
	t.Helper()
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e7, 1e-4)
	g.AddSite("B", 1e7, 1e-4)
	g.Connect("A", "B", 1e6, 0.010)
	var nodes []*topology.Node
	for i := 0; i < np; i++ {
		site := "A"
		if i >= (np+1)/2 {
			site = "B"
		}
		nodes = append(nodes, g.AddNode(topology.NodeSpec{
			Name: string(rune('a'+i)) + "1", Site: site, MHz: 1000, FlopsPerCycle: 1,
		}))
	}
	return g, NewWorld(sim, g, "test", nodes)
}

func TestSendRecvDelivers(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 2)
	var got Msg
	w.Start(func(ctx *Ctx) {
		switch ctx.PhysRank() {
		case 0:
			if err := ctx.SendPhys(1, 7, 1e4, "hello"); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			m, err := ctx.RecvPhys(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			got = m
		}
	})
	sim.Run()
	if got.Payload != "hello" || got.Src != 0 || got.Bytes != 1e4 {
		t.Fatalf("got %+v", got)
	}
	if w.Running() != 0 {
		t.Fatalf("%d ranks still running", w.Running())
	}
}

func TestSendPaysNetworkCost(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 2) // ranks on different sites: WAN 1e6 B/s, 10ms
	var sendDone, recvDone float64
	w.Start(func(ctx *Ctx) {
		if ctx.PhysRank() == 0 {
			ctx.SendPhys(1, 1, 1e6, nil)
			sendDone = ctx.Now()
		} else {
			ctx.RecvPhys(0, 1)
			recvDone = ctx.Now()
		}
	})
	sim.Run()
	// latency 0.0001+0.010+0.0001 + 1e6/1e6 s transfer ~= 1.0102
	if math.Abs(sendDone-1.0102) > 1e-6 {
		t.Fatalf("send completed at %v, want ~1.0102", sendDone)
	}
	if recvDone < sendDone {
		t.Fatal("receiver finished before sender delivered")
	}
	p := w.Rank(0).Profile()
	if p.BytesSent != 1e6 || p.MsgsSent != 1 {
		t.Fatalf("sender profile %+v", p)
	}
	if p.CommTime < 1.0 {
		t.Fatalf("sender comm time %v, want >= 1", p.CommTime)
	}
}

func TestComputeChargesProfile(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 1)
	w.Start(func(ctx *Ctx) {
		if err := ctx.Compute(5e8); err != nil { // 0.5s at 1 Gflop/s
			t.Errorf("compute: %v", err)
		}
		ctx.MarkIteration(3)
	})
	sim.Run()
	p := w.Rank(0).Profile()
	if math.Abs(p.ComputeTime-0.5) > 1e-9 || p.Flops != 5e8 {
		t.Fatalf("profile %+v", p)
	}
	if p.Iteration != 3 || p.IterationAt != 0.5 {
		t.Fatalf("iteration mark %+v", p)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 4)
	c := w.WorldComm()
	var after []float64
	w.Start(func(ctx *Ctx) {
		// Rank i sleeps i seconds, then barriers.
		ctx.Proc().Sleep(float64(ctx.PhysRank()))
		if err := c.Barrier(ctx); err != nil {
			t.Errorf("barrier: %v", err)
		}
		after = append(after, ctx.Now())
	})
	sim.Run()
	if len(after) != 4 {
		t.Fatalf("barrier released %d ranks", len(after))
	}
	for _, ts := range after {
		if ts < 3.0 {
			t.Fatalf("rank escaped barrier at %v, before slowest arrival", ts)
		}
	}
}

func TestBcastDeliversPayloadToAll(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 5)
	c := w.WorldComm()
	got := make([]any, 5)
	w.Start(func(ctx *Ctx) {
		var payload any
		if c.Rank(ctx) == 2 {
			payload = "root-data"
		}
		v, err := c.Bcast(ctx, 2, 1e3, payload)
		if err != nil {
			t.Errorf("bcast: %v", err)
		}
		got[ctx.PhysRank()] = v
	})
	sim.Run()
	for i, v := range got {
		if v != "root-data" {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 4)
	c := w.WorldComm()
	sum := func(a, b any) any {
		if a == nil {
			return b
		}
		return a.(int) + b.(int)
	}
	results := make([]any, 4)
	w.Start(func(ctx *Ctx) {
		me := c.Rank(ctx)
		v, err := c.Allreduce(ctx, 8, me+1, sum)
		if err != nil {
			t.Errorf("allreduce: %v", err)
		}
		results[me] = v
	})
	sim.Run()
	for i, v := range results {
		if v != 10 { // 1+2+3+4
			t.Fatalf("rank %d allreduce = %v, want 10", i, v)
		}
	}
}

func TestGatherScatterAllgather(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 3)
	c := w.WorldComm()
	var gathered []any
	allg := make([][]any, 3)
	w.Start(func(ctx *Ctx) {
		me := c.Rank(ctx)
		g, err := c.Gather(ctx, 0, 8, me*10)
		if err != nil {
			t.Errorf("gather: %v", err)
		}
		if me == 0 {
			gathered = g
		}
		all, err := c.Allgather(ctx, 8, me)
		if err != nil {
			t.Errorf("allgather: %v", err)
		}
		allg[me] = all
	})
	sim.Run()
	for i, v := range gathered {
		if v != i*10 {
			t.Fatalf("gathered[%d] = %v", i, v)
		}
	}
	for r := range allg {
		for i, v := range allg[r] {
			if v != i {
				t.Fatalf("allgather at rank %d: %v", r, allg[r])
			}
		}
	}
}

func TestSubsetCommAndRemap(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 4)
	// Active set = phys {0, 1}; phys 2 and 3 idle (inactive swap pool).
	c := NewComm(w, []int{0, 1})
	var at2 any
	w.Start(func(ctx *Ctx) {
		switch ctx.PhysRank() {
		case 0:
			c.Send(ctx, 1, 0, 100, "before-swap")
			// Wait for the remap (virtual rank 1 -> phys 2), then send again.
			ctx.Proc().Sleep(10)
			c.Send(ctx, 1, 0, 100, "after-swap")
		case 1:
			m, _ := c.Recv(ctx, 0, 0)
			if m.Payload != "before-swap" {
				t.Errorf("phys 1 got %v", m.Payload)
			}
			if c.Rank(ctx) != 1 {
				t.Errorf("phys 1 virtual rank = %d", c.Rank(ctx))
			}
		case 2:
			m, err := ctx.RecvPhys(0, c.userTag(0))
			if err != nil {
				t.Errorf("phys 2 recv: %v", err)
			}
			at2 = m.Payload
		case 3:
			// inactive: not a member.
			if c.Rank(ctx) != -1 {
				t.Errorf("phys 3 should be unmapped, got %d", c.Rank(ctx))
			}
		}
	})
	sim.Schedule(5, func() { c.Remap(1, 2) })
	sim.Run()
	if at2 != "after-swap" {
		t.Fatalf("post-remap message went to %v, want phys 2", at2)
	}
	if c.Phys(1) != 2 {
		t.Fatalf("Phys(1) = %d after remap", c.Phys(1))
	}
}

func TestRemapConflictPanics(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 3)
	c := NewComm(w, []int{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Remap onto an already-mapped phys rank should panic")
		}
	}()
	c.Remap(0, 1)
}

func TestNewCommValidation(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 2)
	for _, bad := range [][]int{{0, 0}, {5}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewComm(%v) should panic", bad)
				}
			}()
			NewComm(w, bad)
		}()
	}
}

func TestWaitBlocksUntilAllDone(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 3)
	w.Start(func(ctx *Ctx) {
		ctx.Proc().Sleep(float64(ctx.PhysRank() + 1))
	})
	var waited float64
	sim.Spawn("waiter", func(p *simcore.Proc) {
		if err := w.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		waited = p.Now()
	})
	sim.Run()
	if waited != 3 {
		t.Fatalf("Wait returned at %v, want 3", waited)
	}
}

func TestUserTagNegativePanics(t *testing.T) {
	sim := simcore.New(1)
	_, w := testWorld(t, sim, 2)
	c := w.WorldComm()
	defer func() {
		if recover() == nil {
			t.Fatal("negative user tag should panic")
		}
	}()
	c.userTag(-1)
}
