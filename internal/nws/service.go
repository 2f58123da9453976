package nws

import (
	"math"

	"grads/internal/faultinject"
	"grads/internal/netsim"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Service is the running weather service on an emulated Grid: a periodic
// sensor process that measures every node's CPU availability and every site
// pair's latency and bandwidth, feeding per-series forecaster ensembles.
type Service struct {
	sim    *simcore.Sim
	grid   *topology.Grid
	period float64

	cpu       map[string]*Ensemble // node name -> availability in [0,1]
	bandwidth map[string]*Ensemble // site pair key -> bytes/s
	// bwLong smooths each bandwidth series over a long window: the right
	// forecast for minutes-long transfers (checkpoint migration), whose
	// effective rate is the time average of the fluctuating availability,
	// not the next sample.
	bwLong  map[string]*SlidingMean
	latency map[string]*Ensemble // site pair key -> seconds
	sensor  *simcore.Proc
	stopped bool

	health   *faultinject.Health
	degraded bool // in outage: forecasts serve last-known data
}

// SetHealth attaches the chaos-layer availability handle. While the service
// is down the sensor stops measuring and every forecast degrades gracefully
// to last-known data (and, for series never measured, to the static
// capability defaults) — consumers keep working on stale forecasts, exactly
// the failure mode a real NWS outage produces.
func (s *Service) SetHealth(h *faultinject.Health) { s.health = h }

// pairKey builds a canonical site-pair key.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Start creates a Service measuring every period seconds and spawns its
// sensor process. The first measurement is taken immediately.
func Start(sim *simcore.Sim, grid *topology.Grid, period float64) *Service {
	if period <= 0 {
		period = 10
	}
	s := &Service{
		sim:       sim,
		grid:      grid,
		period:    period,
		cpu:       make(map[string]*Ensemble),
		bandwidth: make(map[string]*Ensemble),
		bwLong:    make(map[string]*SlidingMean),
		latency:   make(map[string]*Ensemble),
	}
	for _, n := range grid.Nodes() {
		s.cpu[n.Name()] = NewEnsemble()
	}
	sites := grid.Sites()
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if grid.WAN(sites[i].Name, sites[j].Name) == nil {
				continue
			}
			k := pairKey(sites[i].Name, sites[j].Name)
			s.bandwidth[k] = NewEnsemble()
			s.bwLong[k] = NewSlidingMean(20)
			s.latency[k] = NewEnsemble()
		}
		// Intra-site series, keyed by the site against itself.
		k := pairKey(sites[i].Name, sites[i].Name)
		s.bandwidth[k] = NewEnsemble()
		s.bwLong[k] = NewSlidingMean(20)
		s.latency[k] = NewEnsemble()
	}
	s.sensor = sim.Spawn("nws-sensor", s.run)
	return s
}

// Stop terminates the sensor process.
func (s *Service) Stop() {
	s.stopped = true
	s.sensor.Kill()
}

// run is the sensor loop. Outages suspend measurement (forecasts go stale).
func (s *Service) run(p *simcore.Proc) {
	for !s.stopped {
		if s.health.Down() {
			s.setDegraded(true)
		} else {
			s.setDegraded(false)
			s.measure()
		}
		if err := p.Sleep(s.period); err != nil {
			return
		}
	}
}

// setDegraded records outage-mode transitions, emitting one
// service.degraded event per edge.
func (s *Service) setDegraded(d bool) {
	if s.degraded == d {
		return
	}
	s.degraded = d
	if tel := s.sim.Telemetry(); tel != nil {
		tel.Emit(telemetry.Event{
			Type: telemetry.EvServiceDegraded, Comp: "nws", Name: "forecasts",
			Args: []telemetry.Arg{telemetry.B("degraded", d)},
		})
	}
}

// measure samples every monitored series once.
func (s *Service) measure() {
	for _, n := range s.grid.Nodes() {
		s.cpu[n.Name()].Update(n.CPU.Availability())
	}
	sites := s.grid.Sites()
	for i := range sites {
		for j := i; j < len(sites); j++ {
			a, b := sites[i], sites[j]
			k := pairKey(a.Name, b.Name)
			bwEns, ok := s.bandwidth[k]
			if !ok {
				continue
			}
			var r []*netsim.Link
			switch {
			case i == j && len(a.Nodes()) >= 2:
				r = s.grid.Route(a.Nodes()[0], a.Nodes()[1])
			case i != j && len(a.Nodes()) > 0 && len(b.Nodes()) > 0:
				r = s.grid.Route(a.Nodes()[0], b.Nodes()[0])
			default:
				continue
			}
			bw := s.grid.Net.EstimateRate(r)
			bwEns.Update(bw)
			s.bwLong[k].Update(bw)
			s.latency[k].Update(s.grid.Net.RouteLatency(r))
		}
	}
}

// CPUForecast predicts the availability (fraction in (0,1]) of a node. With
// no measurements yet it returns 1 (optimistic, like a fresh NWS series).
func (s *Service) CPUForecast(node string) float64 {
	e, ok := s.cpu[node]
	if !ok || e.Observations() == 0 {
		return 1
	}
	f := e.Forecast()
	if math.IsNaN(f) || f <= 0 {
		return 1e-3
	}
	return f
}

// BandwidthForecast predicts the bytes/s a new flow between the two sites
// would receive. Unmeasured pairs fall back to the instantaneous estimate.
func (s *Service) BandwidthForecast(siteA, siteB string) float64 {
	e, ok := s.bandwidth[pairKey(siteA, siteB)]
	if ok && e.Observations() > 0 {
		if f := e.Forecast(); !math.IsNaN(f) && f > 0 {
			return f
		}
	}
	return s.instantRate(siteA, siteB)
}

// BandwidthForecastLong predicts the average bytes/s a LONG transfer
// between the two sites will sustain: the long-window mean of the series,
// appropriate when the transfer outlives the fluctuation period (migration
// cost estimates use this; short-horizon consumers use BandwidthForecast).
func (s *Service) BandwidthForecastLong(siteA, siteB string) float64 {
	sm, ok := s.bwLong[pairKey(siteA, siteB)]
	if ok {
		if f := sm.Forecast(); !math.IsNaN(f) && f > 0 {
			return f
		}
	}
	return s.BandwidthForecast(siteA, siteB)
}

// LatencyForecast predicts the one-way latency between two sites in seconds.
func (s *Service) LatencyForecast(siteA, siteB string) float64 {
	e, ok := s.latency[pairKey(siteA, siteB)]
	if ok && e.Observations() > 0 {
		if f := e.Forecast(); !math.IsNaN(f) && f >= 0 {
			return f
		}
	}
	a, b := s.grid.Site(siteA), s.grid.Site(siteB)
	if a == nil || b == nil || len(a.Nodes()) == 0 || len(b.Nodes()) == 0 {
		return 0
	}
	return s.grid.Net.RouteLatency(s.grid.Route(a.Nodes()[0], b.Nodes()[0]))
}

// TransferEstimate predicts the seconds needed to move bytes between nodes
// a and b using the forecast series (latency + bytes/bandwidth).
func (s *Service) TransferEstimate(a, b *topology.Node, bytes float64) float64 {
	if a == b || bytes <= 0 {
		return 0
	}
	bw := s.BandwidthForecast(a.Site().Name, b.Site().Name)
	if bw <= 0 {
		bw = 1
	}
	return s.LatencyForecast(a.Site().Name, b.Site().Name) + bytes/bw
}

// instantRate measures the current fair-share rate between two sites.
func (s *Service) instantRate(siteA, siteB string) float64 {
	a, b := s.grid.Site(siteA), s.grid.Site(siteB)
	if a == nil || b == nil || len(a.Nodes()) == 0 || len(b.Nodes()) == 0 {
		return 1
	}
	if siteA == siteB {
		if len(a.Nodes()) < 2 {
			return math.Inf(1)
		}
		return s.grid.Net.EstimateRate(s.grid.Route(a.Nodes()[0], a.Nodes()[1]))
	}
	return s.grid.Net.EstimateRate(s.grid.Route(a.Nodes()[0], b.Nodes()[0]))
}

// EffectiveSpeedForecast predicts a node's delivered flop/s: peak speed
// scaled by forecast CPU availability.
func (s *Service) EffectiveSpeedForecast(n *topology.Node) float64 {
	return n.Spec.Flops() * s.CPUForecast(n.Name())
}
