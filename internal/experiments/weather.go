package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"grads/internal/load"
	"grads/internal/rescheduler"
	"grads/internal/topology"
)

// WeatherConfig parameterizes the forecasting ablation: the paper wires NWS
// forecasts into every rank computation and migration decision; this
// experiment quantifies why. WAN cross traffic is bursty (long quiet
// periods with short heavy spikes); migration decisions are sampled in the
// middle of a spike, when an instantaneous measurement is maximally
// misleading about the bandwidth a minutes-long checkpoint transfer will
// actually see.
type WeatherConfig struct {
	N int // QR matrix size for the migration decision
	// Remaining is the fraction of the factorization still to run at the
	// decision point; with the default it sits in the zone where a few-x
	// cost error flips the verdict.
	Remaining float64
	Trials    int
	Seed      int64
}

// DefaultWeatherConfig uses a crossover-adjacent size, where decisions are
// most sensitive to the cost estimate.
func DefaultWeatherConfig() WeatherConfig {
	return WeatherConfig{N: 9000, Remaining: 0.8, Trials: 30, Seed: 3}
}

// WeatherResult compares decision quality for one estimator source.
type WeatherResult struct {
	Source      string // "nws-forecast" or "instantaneous"
	Agreements  int    // decisions matching the time-averaged-truth oracle
	Trials      int
	MeanCostErr float64 // mean relative migration-cost estimation error
}

// spikePeriod and spikeLen shape the bursty cross traffic: spikeLen seconds
// of heavy traffic every spikePeriod seconds.
const (
	spikePeriod = 200.0
	spikeLen    = 30.0
)

// RunWeather runs the ablation.
func RunWeather(o Options, cfg WeatherConfig) ([]WeatherResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	results := []WeatherResult{
		{Source: "nws-forecast", Trials: cfg.Trials},
		{Source: "instantaneous", Trials: cfg.Trials},
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		quiet := 5e4 + rng.Float64()*1e5
		spike := 7e5 + rng.Float64()*4.5e5
		meanBg := (quiet*(spikePeriod-spikeLen) + spike*spikeLen) / spikePeriod

		// Oracle: the decision and cost under the true time-averaged
		// cross traffic (what a long transfer actually experiences).
		oracleDec, oracleCost, err := weatherDecision(o, cfg, load.Constant(meanBg), false)
		if err != nil {
			return nil, err
		}
		profile := burstProfile(quiet, spike, 1200)
		for i, useNWS := range []bool{true, false} {
			dec, cost, err := weatherDecision(o, cfg, profile, useNWS)
			if err != nil {
				return nil, err
			}
			if dec == oracleDec {
				results[i].Agreements++
			}
			if oracleCost > 0 {
				results[i].MeanCostErr += math.Abs(cost-oracleCost) / oracleCost / float64(cfg.Trials)
			}
		}
	}
	return results, nil
}

// burstProfile builds the spike train: quiet with [period-len, period)
// spikes, repeated until the horizon.
func burstProfile(quiet, spike, until float64) load.Profile {
	var p load.Profile
	for t := 0.0; t < until; t += spikePeriod {
		p = append(p,
			load.Point{At: t, Value: quiet},
			load.Point{At: t + spikePeriod - spikeLen, Value: spike},
		)
	}
	return p
}

// weatherDecision evaluates one migration decision at t=995 — inside the
// [970, 1000) spike of the burst profile — for a loaded QR at cfg.N.
func weatherDecision(o Options, cfg WeatherConfig, profile load.Profile, useNWS bool) (bool, float64, error) {
	period := 10.0
	env := o.NewEnv(cfg.Seed, topology.QRTestbed, "qr", period)
	wan := env.Grid.WAN("UTK", "UIUC")
	load.Play(env.Sim, profile, func(v float64) { env.Grid.Net.SetBackground(wan, v) })
	env.Grid.Node("utk1").CPU.SetExternalLoad(1)
	env.Sim.RunUntil(995)

	app := &weatherApp{n: float64(cfg.N), frac: cfg.Remaining}
	r := rescheduler.New(env.Grid, nil)
	if useNWS {
		r.Weather = env.Weather
	}
	d := r.Evaluate(app, env.Grid.Site("UTK").Nodes(),
		rescheduler.SiteCandidates(env.Grid.Nodes()))
	env.Weather.Stop()
	return d.Migrate, d.MigrationCost, nil
}

// weatherApp is a minimal estimator: a loaded QR at size n with half its
// work remaining.
type weatherApp struct{ n, frac float64 }

// RemainingTime implements rescheduler.Estimator.
func (a *weatherApp) RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64 {
	slowest := 1e30
	for _, nd := range nodes {
		if r := nd.Spec.Flops() * avail(nd); r < slowest {
			slowest = r
		}
	}
	frac := a.frac
	if frac <= 0 {
		frac = 0.5
	}
	return frac * 4.0 / 3.0 * a.n * a.n * a.n / (slowest * float64(len(nodes)))
}

// CheckpointBytes implements rescheduler.Estimator.
func (a *weatherApp) CheckpointBytes() float64 { return (a.n*a.n + a.n) * 8 }

// RestartOverhead implements rescheduler.Estimator.
func (a *weatherApp) RestartOverhead() float64 { return 28 }

// FormatWeather renders the ablation.
func FormatWeather(results []WeatherResult) string {
	t := &Table{Header: []string{"estimator source", "oracle agreement", "mean cost error"}}
	for _, r := range results {
		t.Add(r.Source,
			fmt.Sprintf("%d/%d", r.Agreements, r.Trials),
			fmt.Sprintf("%.1f%%", 100*r.MeanCostErr))
	}
	return t.String()
}
