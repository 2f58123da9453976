package main

import (
	"fmt"
	"math/rand"

	"grads/internal/binder"
	"grads/internal/frontdoor"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/metasched"
	"grads/internal/resilience"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// serveFleet pushes seeded Poisson request streams through the front door
// onto the lopsided 8/4/2-node three-broker fleet with UCB routing, one
// kernel per arrival rate. The rates sit below the fleet's saturation knee,
// so the same metasched code runs against many shallow queues, and the QoS
// engine offloads under pressure but sheds no request.
type serveFleet struct {
	seed int64
	reqs [][]frontdoor.Request // one stream per rate
}

var (
	serveRates = []float64{0.02, 0.035, 0.05}
	serveNodes = []int{8, 4, 2}
)

const (
	serveWindow = 120000 // arrival window, virtual seconds
	serveTick   = 5      // broker admission-round period
	serveRunCap = 1e6    // virtual-time safety horizon per rate
	serveDropAt = 4      // class pressure past which the front door sheds
)

// serveBreaker is the class SLO breaker the fleet runs with: the default
// serving breaker's cooldown and probes, tripped by 20 consecutive breaches
// instead of 5. With the default, about one seed in twenty drops requests
// below the knee: a few interactive requests queue behind wider jobs, five
// of them in a row miss the 60 s target, the int breaker opens, and it
// sheds the class for its cooldown. Over 108 seeds the longest int breach
// streak was 7 and the highest class pressure 1.6, so neither the breaker
// nor pressure shedding (serveDropAt) fires below the knee.
var serveBreaker = resilience.BreakerConfig{FailureThreshold: 20, Cooldown: 120, HalfOpenProbes: 3}

func (w *serveFleet) setup(seed int64, tiny bool, sp *spans) error {
	w.seed = seed
	window := float64(serveWindow)
	if tiny {
		window = 3000
	}
	w.reqs = w.reqs[:0]
	for i, rate := range serveRates {
		phases := []frontdoor.Phase{{Kind: "poisson", Start: 0, End: window, Rate: rate}}
		id := sp.begin("frontdoor.Generate")
		reqs, err := frontdoor.Generate(phases, serveClasses(), rand.New(rand.NewSource(seed*7919+int64(i))))
		sp.end(id)
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, reqs)
	}
	return nil
}

func (w *serveFleet) run(tel *telemetry.Telemetry, sp *spans) *outcome {
	o := &outcome{}
	d := newDigester()
	for i, reqs := range w.reqs {
		o.attempted += len(reqs)
		s, err := w.cell(reqs, tel, sp, o)
		if err != nil {
			o.fail(len(reqs), "serve rate %g: %v", serveRates[i], err)
			continue
		}
		d.i(s.Requests, s.Drops, s.Offloads, s.Pending)
		d.f(s.Mean, s.P50, s.P95, s.P99, s.Fairness)
		for _, b := range s.Brokers {
			d.i(b.Routed, b.Done)
			d.f(b.MeanLat)
		}
	}
	o.makespan /= float64(len(w.reqs))
	d.f(o.lat...)
	d.f(o.makespan)
	o.digest = d.sum()
	return o
}

// cell serves one request stream on a fresh kernel and fleet and adds its
// results to o.
func (w *serveFleet) cell(reqs []frontdoor.Request, tel *telemetry.Telemetry, sp *spans, o *outcome) (frontdoor.Stats, error) {
	sim := simcore.New(w.seed)
	if tel != nil {
		sim.SetTelemetry(tel)
	}
	policy, err := frontdoor.ParseRoutePolicy("ucb")
	if err != nil {
		return frontdoor.Stats{}, err
	}
	brokers := buildFleet(sim)
	id := sp.begin("frontdoor.New")
	fd, err := frontdoor.New(frontdoor.Config{
		Sim: sim, Brokers: brokers, Policy: policy, Classes: serveClasses(), Seed: w.seed,
		DropAt: serveDropAt, Breaker: serveBreaker,
	})
	sp.end(id)
	if err != nil {
		return frontdoor.Stats{}, err
	}
	id = sp.begin("frontdoor.Start")
	err = fd.Start(reqs)
	sp.end(id)
	if err != nil {
		return frontdoor.Stats{}, err
	}
	id = sp.begin("simcore.RunUntil")
	sim.RunUntil(serveRunCap)
	sp.end(id)
	fd.Stop()

	s := fd.Stats()
	terminal, failed := 0, 0
	for _, c := range s.Classes {
		terminal += c.Done + c.Failed
		failed += c.Failed
	}
	if s.Requests != len(reqs) || s.Requests != s.Drops+terminal+s.Pending {
		return s, fmt.Errorf("requests not conserved: %d sent, %d seen, %d dropped, %d terminal, %d pending",
			len(reqs), s.Requests, s.Drops, terminal, s.Pending)
	}
	if s.Drops+failed+s.Pending > 0 {
		o.fail(s.Drops+failed+s.Pending, "serve %d requests: %d dropped, %d failed, %d never finished", len(reqs), s.Drops, failed, s.Pending)
	}

	o.events += sim.EventsFired()
	o.tasks += terminal
	last := 0.0
	for i := 0; i < fd.NumBrokers(); i++ {
		b := fd.Broker(i)
		o.count("metasched.admissions", float64(b.Admissions()))
		o.count("metasched.preempts", float64(b.PreemptApplied()))
		for _, r := range b.Records() {
			o.count("metasched.requeues", float64(r.Requeues))
			if r.State != "done" {
				continue
			}
			o.lat = append(o.lat, r.Turnaround)
			if run := r.Finish - r.Start; run > 0 {
				o.achieved += r.Turnaround
				o.bound += run
			}
			if r.Finish > last {
				last = r.Finish
			}
		}
		passes, flows := brokers[i].Config.Grid.Net.SolverStats()
		o.count("netsim.solver_passes", float64(passes))
		o.count("netsim.flows_solved", float64(flows))
	}
	o.makespan += last
	o.count("frontdoor.requests", float64(s.Requests))
	o.count("frontdoor.offloads", float64(s.Offloads))
	o.count("frontdoor.drops", float64(s.Drops))
	o.count("simcore.events", float64(sim.EventsFired()))
	return s, nil
}

// serveClasses is the default three-tier request mix with the bulk p95
// target raised from 1200 s to 2400 s: a bulk job takes about 1260 s on the
// 2-node broker even when that broker is idle, so under the default target
// every bulk request routed there breaches, under the default breaker five in
// a row open the class's SLO breaker, and the front door sheds bulk requests
// at any arrival rate.
func serveClasses() []frontdoor.Class {
	classes := frontdoor.DefaultClasses()
	for i := range classes {
		if classes[i].Name == "bulk" {
			classes[i].Target = 2400
		}
	}
	return classes
}

// buildFleet builds one single-site grid per broker, each with its own GIS,
// depots and binder, on one kernel.
func buildFleet(sim *simcore.Sim) []frontdoor.BrokerSpec {
	specs := make([]frontdoor.BrokerSpec, 0, len(serveNodes))
	for i, n := range serveNodes {
		site := fmt.Sprintf("site%02d", i)
		grid := topology.NewGrid(sim)
		grid.AddSite(site, topology.GigE, topology.LANLatency)
		for _, sp := range topology.SyntheticSite(site, n) {
			grid.AddNode(sp)
		}
		g := gis.New(sim, grid)
		g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
		for _, lib := range []string{"scalapack", "blas", "srs", "autopilot", "mpi"} {
			g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
		}
		st := ibp.New(sim, grid)
		st.AddDepotsEverywhere()
		specs = append(specs, frontdoor.BrokerSpec{
			Name: site,
			Config: metasched.Config{
				Sim: sim, Grid: grid, GIS: g, Storage: st, Binder: binder.New(sim, g),
				Policy: metasched.PolicyBackfill, Tick: serveTick,
			},
		})
	}
	return specs
}
