package nws

import (
	"math"
	"testing"

	"grads/internal/simcore"
	"grads/internal/topology"
)

func testGrid(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("A", 1e6, 1e-4)
	g.AddSite("B", 1e6, 1e-4)
	g.Connect("A", "B", 1e5, 0.010)
	g.AddNode(topology.NodeSpec{Name: "a1", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "a2", Site: "A", MHz: 1000, FlopsPerCycle: 1})
	g.AddNode(topology.NodeSpec{Name: "b1", Site: "B", MHz: 500, FlopsPerCycle: 1})
	return g
}

func TestServiceMeasuresCPULoad(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	// Load node a1 at t=20: availability drops to 1/3.
	sim.Schedule(20, func() { g.Node("a1").CPU.SetExternalLoad(2) })
	sim.RunUntil(200)
	f := svc.CPUForecast("a1")
	if math.Abs(f-1.0/3.0) > 0.05 {
		t.Fatalf("CPU forecast for loaded node = %v, want ~0.333", f)
	}
	if got := svc.CPUForecast("a2"); math.Abs(got-1) > 1e-9 {
		t.Fatalf("idle node forecast = %v, want 1", got)
	}
	if svc.CPUForecast("nonexistent") != 1 {
		t.Fatal("unknown node should forecast 1")
	}
	svc.Stop()
}

func TestServiceMeasuresNetwork(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	sim.RunUntil(100)
	bw := svc.BandwidthForecast("A", "B")
	if math.Abs(bw-1e5) > 1e3 {
		t.Fatalf("WAN bandwidth forecast = %v, want ~1e5", bw)
	}
	lat := svc.LatencyForecast("A", "B")
	if math.Abs(lat-0.0102) > 1e-6 { // 2 LAN hops + WAN
		t.Fatalf("latency forecast = %v, want 0.0102", lat)
	}
	// Background traffic halves available WAN bandwidth; forecast follows.
	g.Net.SetBackground(g.WAN("A", "B"), 5e4)
	sim.RunUntil(400)
	bw = svc.BandwidthForecast("A", "B")
	if math.Abs(bw-5e4) > 5e3 {
		t.Fatalf("post-traffic forecast = %v, want ~5e4", bw)
	}
	svc.Stop()
}

func TestTransferEstimate(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	sim.RunUntil(50)
	a, b := g.Node("a1"), g.Node("b1")
	est := svc.TransferEstimate(a, b, 1e5)
	// ~0.0102 latency + 1e5/1e5 = ~1.01
	if math.Abs(est-1.0102) > 0.01 {
		t.Fatalf("TransferEstimate = %v, want ~1.01", est)
	}
	if svc.TransferEstimate(a, a, 1e5) != 0 {
		t.Fatal("same-node transfer should cost 0")
	}
	svc.Stop()
}

func TestEffectiveSpeedForecast(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	g.Node("b1").CPU.SetExternalLoad(1)
	sim.RunUntil(100)
	got := svc.EffectiveSpeedForecast(g.Node("b1"))
	want := 500e6 * 0.5
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("EffectiveSpeedForecast = %v, want ~%v", got, want)
	}
	svc.Stop()
}

func TestPassiveSensorsMoveNoBytes(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	sim.RunUntil(50)
	if g.Net.BytesMoved() != 0 {
		t.Fatalf("sensors moved %v bytes across the network", g.Net.BytesMoved())
	}
	svc.Stop()
}

func TestServiceStopKillsSensor(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := Start(sim, g, 5)
	sim.RunUntil(12)
	svc.Stop()
	sim.Run() // must terminate: sensor loop exited
	if n := len(sim.LiveProcs()); n != 0 {
		t.Fatalf("live procs after Stop: %v", sim.LiveProcs())
	}
}
