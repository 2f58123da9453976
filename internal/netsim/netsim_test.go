package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grads/internal/simcore"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleTransfer(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("wan", 1000, 0.5) // 1000 B/s, 500 ms
	var done float64
	s.Spawn("tx", func(p *simcore.Proc) {
		moved, err := n.Transfer(p, []*Link{l}, 2000)
		if err != nil || moved != 2000 {
			t.Errorf("Transfer = %v, %v", moved, err)
		}
		done = p.Now()
	})
	s.Run()
	if !almost(done, 2.5, 1e-9) { // 0.5 latency + 2000/1000
		t.Fatalf("transfer finished at %v, want 2.5", done)
	}
	if n.BytesMoved() != 2000 {
		t.Fatalf("BytesMoved = %v", n.BytesMoved())
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("lan", 100, 0)
	var d1, d2 float64
	s.Spawn("a", func(p *simcore.Proc) {
		n.Transfer(p, []*Link{l}, 500)
		d1 = p.Now()
	})
	s.Spawn("b", func(p *simcore.Proc) {
		n.Transfer(p, []*Link{l}, 500)
		d2 = p.Now()
	})
	s.Run()
	if !almost(d1, 10, 1e-9) || !almost(d2, 10, 1e-9) {
		t.Fatalf("finish times %v %v, want 10 each (fair share)", d1, d2)
	}
}

func TestMultiLinkRouteBottleneck(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	fast := n.AddLink("lan", 1000, 0.001)
	slow := n.AddLink("wan", 100, 0.030)
	var done float64
	s.Spawn("tx", func(p *simcore.Proc) {
		n.Transfer(p, []*Link{fast, slow}, 1000)
		done = p.Now()
	})
	s.Run()
	// latency 0.031 + 1000/100 (bottleneck) = 10.031
	if !almost(done, 10.031, 1e-9) {
		t.Fatalf("finished at %v, want 10.031", done)
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	// Flow A crosses only link1 (cap 100). Flows B and C cross link1+link2
	// where link2 has cap 40. Max-min: B and C get 20 each on link2;
	// A gets the rest of link1 = 60.
	s := simcore.New(1)
	n := New(s)
	l1 := n.AddLink("l1", 100, 0)
	l2 := n.AddLink("l2", 40, 0)
	var rateA float64
	s.Spawn("a", func(p *simcore.Proc) { n.Transfer(p, []*Link{l1}, 6000) })
	s.Spawn("b", func(p *simcore.Proc) { n.Transfer(p, []*Link{l1, l2}, 4000) })
	s.Spawn("c", func(p *simcore.Proc) { n.Transfer(p, []*Link{l1, l2}, 4000) })
	s.Schedule(1, func() {
		// After 1s: A moved 60, B and C moved 20 each. Check via the
		// remaining-time estimate embedded in flow rates.
		rateA = 0
		for _, f := range n.flows {
			if f.route[len(f.route)-1] == l1 && len(f.route) == 1 {
				rateA = f.rate
			}
		}
	})
	s.Run()
	if !almost(rateA, 60, 1e-9) {
		t.Fatalf("single-link flow rate = %v, want 60 (max-min)", rateA)
	}
}

func TestBackgroundTrafficSlowsTransfer(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("wan", 100, 0)
	var done float64
	s.Spawn("tx", func(p *simcore.Proc) {
		n.Transfer(p, []*Link{l}, 1000)
		done = p.Now()
	})
	s.Schedule(5, func() { n.SetBackground(l, 50) }) // halves available bw
	s.Run()
	// 5s at 100 B/s = 500 B; remaining 500 at 50 B/s = 10 s more.
	if !almost(done, 15, 1e-9) {
		t.Fatalf("finished at %v, want 15", done)
	}
}

func TestInterruptMidTransfer(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("wan", 100, 0)
	cause := errors.New("stop")
	var moved float64
	var err error
	p := s.Spawn("tx", func(p *simcore.Proc) {
		moved, err = n.Transfer(p, []*Link{l}, 1000)
	})
	s.Schedule(4, func() { p.Interrupt(cause) })
	s.Run()
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if !almost(moved, 400, 1e-6) {
		t.Fatalf("moved %v before interrupt, want 400", moved)
	}
	if len(n.flows) != 0 {
		t.Fatalf("flow leaked: %d active", len(n.flows))
	}
}

func TestEstimateRate(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	l := n.AddLink("wan", 100, 0)
	if r := n.EstimateRate([]*Link{l}); !almost(r, 100, 1e-9) {
		t.Fatalf("idle estimate = %v, want 100", r)
	}
	s.Spawn("bg", func(p *simcore.Proc) { n.Transfer(p, []*Link{l}, 1e6) })
	s.Schedule(1, func() {
		if r := n.EstimateRate([]*Link{l}); !almost(r, 50, 1e-9) {
			t.Errorf("estimate with 1 flow = %v, want 50", r)
		}
		if est := n.TransferTimeEstimate([]*Link{l}, 100); !almost(est, 2, 1e-9) {
			t.Errorf("TransferTimeEstimate = %v, want 2", est)
		}
	})
	s.RunUntil(2)
}

func TestEmptyRouteIsFree(t *testing.T) {
	s := simcore.New(1)
	n := New(s)
	var done float64 = -1
	s.Spawn("tx", func(p *simcore.Proc) {
		moved, err := n.Transfer(p, nil, 1e9)
		if err != nil || moved != 1e9 {
			t.Errorf("Transfer = %v, %v", moved, err)
		}
		done = p.Now()
	})
	s.Run()
	if done != 0 {
		t.Fatalf("intra-node transfer took time: %v", done)
	}
}

// Property: the max-min allocation never oversubscribes a link, and every
// flow receives a strictly positive rate.
func TestQuickMaxMinFeasibleAndPositive(t *testing.T) {
	f := func(routesRaw []uint8, caps [3]uint16) bool {
		s := simcore.New(3)
		n := New(s)
		links := []*Link{
			n.AddLink("a", float64(caps[0]%500)+10, 0),
			n.AddLink("b", float64(caps[1]%500)+10, 0),
			n.AddLink("c", float64(caps[2]%500)+10, 0),
		}
		if len(routesRaw) == 0 || len(routesRaw) > 10 {
			return true
		}
		for _, r := range routesRaw {
			// Build a route out of 1-3 distinct links from bits of r.
			var route []*Link
			for i := 0; i < 3; i++ {
				if r&(1<<i) != 0 {
					route = append(route, links[i])
				}
			}
			if len(route) == 0 {
				route = []*Link{links[r%3]}
			}
			s.Spawn("tx", func(p *simcore.Proc) { n.Transfer(p, route, 1e7) })
		}
		ok := true
		s.Schedule(0.5, func() {
			use := map[*Link]float64{}
			for _, fl := range n.flows {
				if fl.rate <= 0 {
					ok = false
				}
				for _, l := range fl.route {
					use[l] += fl.rate
				}
			}
			for l, u := range use {
				if u > l.residual()*(1+1e-9) {
					ok = false
				}
			}
		})
		s.RunUntil(0.5)
		return ok
	}
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: volume conservation — total bytes moved equals the sum of all
// transfer sizes once every flow completes.
func TestQuickVolumeConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		s := simcore.New(5)
		n := New(s)
		l := n.AddLink("l", 997, 0.003)
		total := 0.0
		for _, raw := range sizes {
			b := float64(raw%9000) + 1
			total += b
			s.Spawn("tx", func(p *simcore.Proc) { n.Transfer(p, []*Link{l}, b) })
		}
		s.Run()
		return almost(n.BytesMoved(), total, 1e-6*(1+total))
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
