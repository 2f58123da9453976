package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"grads/internal/binder"
	"grads/internal/frontdoor"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/metasched"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// ServeConfig parameterizes the serving sweep: an open-loop Poisson request
// stream pushed through the front door onto a heterogeneous broker fleet,
// swept over arrival rate x routing policy.
type ServeConfig struct {
	Rates      []float64 // arrival rates (requests/s) to sweep
	Policies   []string  // routing policy names (frontdoor.ParseRoutePolicy)
	Duration   float64   // arrival window (seconds)
	NodeCounts []int     // per-broker site sizes — deliberately lopsided
	Seed       int64
	Tick       float64 // broker admission round period
	RunCap     float64 // virtual-time safety horizon per cell
}

// DefaultServeConfig returns the standard sweep: round-robin, join-shortest-
// queue and the UCB bandit over four arrival rates, from a light trickle to
// past the fleet's saturation knee, on an 8/4/2-node three-broker fleet.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Rates:      []float64{0.05, 0.1, 0.2, 0.3},
		Policies:   []string{"rr", "least", "ucb"},
		Duration:   1200,
		NodeCounts: []int{8, 4, 2},
		Seed:       11,
		Tick:       5,
		RunCap:     400000,
	}
}

// ServeResult is one sweep cell: the policy, the offered rate, and the front
// door's full ledger at drain.
type ServeResult struct {
	Policy string
	Rate   float64
	Stats  frontdoor.Stats
}

// serveFleet builds the serving fleet on one kernel: one single-site grid
// per broker (with its own GIS, depots and binder), sized by nodeCounts.
func serveFleet(sim *simcore.Sim, nodeCounts []int, tick float64) []frontdoor.BrokerSpec {
	specs := make([]frontdoor.BrokerSpec, 0, len(nodeCounts))
	for i, n := range nodeCounts {
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
				Policy: metasched.PolicyBackfill, Tick: tick,
			},
		})
	}
	return specs
}

// runServeCell runs one policy x rate cell on a fresh kernel and fleet.
func runServeCell(o Options, cfg ServeConfig, policyName string, rate float64) (*ServeResult, error) {
	policy, err := frontdoor.ParseRoutePolicy(policyName)
	if err != nil {
		return nil, err
	}
	phases := []frontdoor.Phase{{Kind: "poisson", Start: 0, End: cfg.Duration, Rate: rate}}
	s, _, err := serveWorkload(o, cfg, phases, policy)
	if err != nil {
		return nil, err
	}
	terminal := 0
	for _, c := range s.Classes {
		terminal += c.Done + c.Failed
	}
	if s.Requests != s.Drops+terminal+s.Pending {
		return nil, fmt.Errorf("serve %s/rate=%g: conservation broken: %d requests, %d drops, %d terminal, %d pending",
			policyName, rate, s.Requests, s.Drops, terminal, s.Pending)
	}
	return &ServeResult{Policy: policy.Name(), Rate: rate, Stats: s}, nil
}

// serveWorkload realizes phases as requests and serves them through the
// front door on a fresh kernel and the standard fleet, routed by policy. It
// returns the outcome and the number of requests generated.
func serveWorkload(o Options, cfg ServeConfig, phases []frontdoor.Phase, policy frontdoor.Policy) (frontdoor.Stats, int, error) {
	reqs, err := frontdoor.Generate(phases, frontdoor.DefaultClasses(), rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return frontdoor.Stats{}, 0, err
	}
	sim := o.newSim(cfg.Seed)
	fd, err := frontdoor.New(frontdoor.Config{
		Sim:     sim,
		Brokers: serveFleet(sim, cfg.NodeCounts, cfg.Tick),
		Policy:  policy,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return frontdoor.Stats{}, 0, err
	}
	if err := fd.Start(reqs); err != nil {
		return frontdoor.Stats{}, 0, err
	}
	sim.RunUntil(cfg.RunCap)
	return fd.Stats(), len(reqs), nil
}

// RunServe sweeps arrival rate x routing policy.
func RunServe(o Options, cfg ServeConfig) ([]ServeResult, error) {
	var out []ServeResult
	for _, rate := range cfg.Rates {
		for _, policyName := range cfg.Policies {
			r, err := runServeCell(o, cfg, policyName, rate)
			if err != nil {
				return nil, fmt.Errorf("serve %s/rate=%g: %w", policyName, rate, err)
			}
			out = append(out, *r)
		}
	}
	return out, nil
}

// ServeSummaryTable renders the per-cell fleet-level view of the sweep.
func ServeSummaryTable(res []ServeResult) *Table {
	t := &Table{Header: []string{
		"policy", "rate_rps", "reqs", "drop%", "offloads",
		"p50_s", "p95_s", "p99_s", "fairness",
	}}
	for _, r := range res {
		s := r.Stats
		t.Add(r.Policy, fmt.Sprintf("%.2f", r.Rate), fmt.Sprint(s.Requests),
			pct(s.Drops, s.Requests), fmt.Sprint(s.Offloads),
			Secs(s.P50), Secs(s.P95), Secs(s.P99),
			fmt.Sprintf("%.3f", s.Fairness))
	}
	return t
}

// ServeClassTable renders the per-class view of the sweep.
func ServeClassTable(res []ServeResult) *Table {
	t := &Table{Header: []string{
		"policy", "rate_rps", "class", "reqs", "done", "drop%", "offloads",
		"breaches", "p50_s", "p95_s", "p99_s",
	}}
	for _, r := range res {
		for _, c := range r.Stats.Classes {
			t.Add(r.Policy, fmt.Sprintf("%.2f", r.Rate), c.Name,
				fmt.Sprint(c.Requests), fmt.Sprint(c.Done),
				pct(c.Drops, c.Requests), fmt.Sprint(c.Offloads),
				fmt.Sprint(c.Breaches), Secs(c.P50), Secs(c.P95), Secs(c.P99))
		}
	}
	return t
}

// pct formats part/whole as a percentage, "-" when whole is zero.
func pct(part, whole int) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(part)/float64(whole))
}

// serveCompare extracts the highest-rate p95 of two policies for the
// bandit-versus-blind headline line, "" when either cell is missing.
func serveCompare(res []ServeResult) string {
	top := 0.0
	for _, r := range res {
		if r.Rate > top {
			top = r.Rate
		}
	}
	var ucb, rr *ServeResult
	for i := range res {
		if res[i].Rate != top {
			continue
		}
		switch res[i].Policy {
		case "ucb":
			ucb = &res[i]
		case "rr":
			rr = &res[i]
		}
	}
	if ucb == nil || rr == nil {
		return ""
	}
	return fmt.Sprintf(
		"at %.2f req/s the bandit holds p95 to %s s where round-robin drifts to %s s\n"+
			"(ucb drop %s%% vs rr %s%%; the bandit learns to starve the 2-node broker)\n",
		top, Secs(ucb.Stats.P95), Secs(rr.Stats.P95),
		pct(ucb.Stats.Drops, ucb.Stats.Requests), pct(rr.Stats.Drops, rr.Stats.Requests))
}

// FormatServe renders the serving sweep report.
func FormatServe(res []ServeResult) string {
	var b strings.Builder
	b.WriteString("fleet view (drop% of offered; fairness = Jain over routed/capacity):\n\n")
	b.WriteString(ServeSummaryTable(res).String())
	b.WriteString("\nper-class view (p95 targets: int 60 s, batch 300 s, bulk 1200 s):\n\n")
	b.WriteString(ServeClassTable(res).String())
	if cmp := serveCompare(res); cmp != "" {
		b.WriteString("\n")
		b.WriteString(cmp)
	}
	return b.String()
}

// RunServeSmoke runs one compressed high-contention cell (ucb on the
// lopsided fleet) per seed and fails on any conservation violation; its
// output joins the determinism CI matrix, so it must be byte-stable per
// seed (1, 2 and 3 unless o.Seed is set).
func RunServeSmoke(o Options) (string, error) {
	var b strings.Builder
	b.WriteString("CI — serving smoke: one compressed high-contention cell per seed\n")
	for _, seed := range o.Seeds(1, 2, 3) {
		cfg := DefaultServeConfig()
		cfg.Seed = seed
		cfg.Duration = 600
		cfg.Rates = []float64{0.25}
		cfg.Policies = []string{"ucb"}
		res, err := RunServe(o, cfg)
		if err != nil {
			return "", fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(&b, "\nseed %d:\n\n%s", seed, ServeSummaryTable(res).String())
	}
	return b.String(), nil
}

// RunArrivals realizes an explicit -arrivals workload spec through the
// front door (routing policy chosen by -route) on the standard serving
// fleet and returns the outcome report.
func RunArrivals(o Options, spec, route string) (string, error) {
	phases, err := frontdoor.ParseArrivals(spec)
	if err != nil {
		return "", err
	}
	policy, err := frontdoor.ParseRoutePolicy(route)
	if err != nil {
		return "", err
	}
	cfg := DefaultServeConfig()
	cfg.Seed = o.SeedOr(cfg.Seed)
	stats, n, err := serveWorkload(o, cfg, phases, policy)
	if err != nil {
		return "", err
	}
	span := 0.0
	for _, p := range phases {
		if p.End > span {
			span = p.End
		}
	}
	rate := 0.0
	if span > 0 {
		rate = float64(n) / span
	}
	res := []ServeResult{{Policy: policy.Name(), Rate: rate, Stats: stats}}
	return "serving — front door on the standard 8/4/2 fleet\n\n" +
		"workload: " + frontdoor.FormatArrivals(phases) + "\n" +
		"policy:   " + policy.Name() + "\n\n" +
		FormatServe(res), nil
}
