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

func TestActiveProbesMeasureNetwork(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := StartActive(sim, g, 5, 64e3)
	sim.RunUntil(100)
	// Active probes should land near the passive truth.
	bw := svc.BandwidthForecast("A", "B")
	if bw < 0.8e5 || bw > 1.2e5 {
		t.Fatalf("active bandwidth forecast = %v, want ~1e5", bw)
	}
	lat := svc.LatencyForecast("A", "B")
	if math.Abs(lat-0.0102) > 0.002 {
		t.Fatalf("active latency forecast = %v, want ~0.0102", lat)
	}
	if svc.probes == 0 {
		t.Fatal("no probes sent in active mode")
	}
	// Probe traffic is real: it shows up in the network totals.
	if g.Net.BytesMoved() == 0 {
		t.Fatal("probe bytes did not cross the network")
	}
	svc.Stop()
	// Passive mode sends no probes.
	sim2 := simcore.New(1)
	g2 := testGrid(sim2)
	svc2 := Start(sim2, g2, 5)
	sim2.RunUntil(50)
	if svc2.probes != 0 || g2.Net.BytesMoved() != 0 {
		t.Fatal("passive mode generated probe traffic")
	}
	svc2.Stop()
}

func TestActiveProbesTrackBackgroundTraffic(t *testing.T) {
	sim := simcore.New(1)
	g := testGrid(sim)
	svc := StartActive(sim, g, 5, 64e3)
	g.Net.SetBackground(g.WAN("A", "B"), 5e4) // half the WAN consumed
	sim.RunUntil(300)
	bw := svc.BandwidthForecast("A", "B")
	if bw < 0.35e5 || bw > 0.7e5 {
		t.Fatalf("forecast under cross traffic = %v, want ~5e4", bw)
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
