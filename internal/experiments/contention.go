package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"grads/internal/apps"
	"grads/internal/cop"
	"grads/internal/linalg"
	"grads/internal/metasched"
	"grads/internal/topology"
)

// ContentionConfig parameterizes the metascheduler contention sweep: a
// deterministic multi-application job stream (ScaLAPACK QR factorizations
// and task farms) pushed through the broker on the QR testbed, swept over
// arrival rate x queue policy.
type ContentionConfig struct {
	Policies      []metasched.Policy
	Interarrivals []float64 // mean interarrival gaps (seconds) to sweep
	Jobs          int       // submissions per cell
	Seed          int64
	Tick          float64 // admission round period
	StarveAfter   float64 // starvation threshold before preemption
	NWSPeriod     float64
	RunCap        float64 // virtual-time safety horizon per cell
}

// DefaultContentionConfig returns the standard sweep: every policy, a
// saturated arrival rate and a relaxed one, ten jobs per cell.
func DefaultContentionConfig() ContentionConfig {
	return ContentionConfig{
		Policies:      metasched.Policies(),
		Interarrivals: []float64{30, 240},
		Jobs:          10,
		Seed:          2,
		Tick:          5,
		StarveAfter:   180,
		NWSPeriod:     30,
		RunCap:        200000,
	}
}

// ContentionResult summarizes one sweep cell.
type ContentionResult struct {
	Policy       metasched.Policy
	Interarrival float64

	Jobs, Done, Failed       int
	Makespan                 float64
	MeanWait, P95Wait        float64
	Fairness                 float64 // Jain index over slowdowns
	Utilization              float64 // leased node-seconds / (nodes x makespan)
	PreemptOrders, Preempted int
	Requeues                 int
}

// qrEstRate is the coarse per-node delivered flop/s used only for the
// user-supplied runtime estimates (backfill reservations), deliberately
// rougher than the COP's own performance model.
const qrEstRate = 54e6

// contentionStream generates the deterministic submission stream for one
// arrival-rate cell: a seeded mix of QR factorizations (tightly coupled,
// single-site) and task farms (loosely coupled, any width), plus one wide
// high-bid "urgent" QR latecomer that must starve under contention and
// force a preemption negotiation.
func contentionStream(cfg ContentionConfig, interarrival float64) []metasched.JobSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]metasched.JobSpec, 0, cfg.Jobs)
	t := 0.0
	urgent := cfg.Jobs * 3 / 5
	for i := 0; i < cfg.Jobs; i++ {
		t += rng.ExpFloat64() * interarrival
		submit := math.Round(t*10) / 10
		if i == urgent {
			specs = append(specs, qrJob(fmt.Sprintf("job%02d-urgent-qr", i), submit, 3000, 8, 4, 40))
			continue
		}
		bid := 1 + math.Round(rng.Float64()*70)/10
		if rng.Intn(2) == 0 {
			n := 2000 + 500*rng.Intn(5)
			width := 4 + rng.Intn(5)
			specs = append(specs, qrJob(fmt.Sprintf("job%02d-qr", i), submit, n, width, 2, bid))
		} else {
			tasks := 8 * (2 + rng.Intn(4))
			width := 2 + rng.Intn(5)
			specs = append(specs, farmJob(fmt.Sprintf("job%02d-farm", i), submit, tasks, width, bid))
		}
	}
	return specs
}

// qrJob builds a ScaLAPACK QR submission.
func qrJob(name string, submit float64, n, width, minWidth int, bid float64) metasched.JobSpec {
	return metasched.JobSpec{
		Name: name, Kind: "qr", Submit: submit,
		Width: width, MinWidth: minWidth, Bid: bid,
		EstRuntime: linalg.QRFlops(float64(n)) / (float64(width) * qrEstRate),
		Make: func(c *metasched.AppContext) (cop.COP, error) {
			q, err := apps.NewQR(c.Grid, c.RSS, c.Binder, n, 100)
			if err != nil {
				return nil, err
			}
			q.SetMaxProcs(width)
			q.CheckpointEvery = 5
			return q, nil
		},
	}
}

// farmJob builds a task-farm submission.
func farmJob(name string, submit float64, tasks, width int, bid float64) metasched.JobSpec {
	const taskFlops = 5e9
	return metasched.JobSpec{
		Name: name, Kind: "task-farm", Submit: submit,
		Width: width, MinWidth: 1, Bid: bid,
		EstRuntime: float64(tasks) * taskFlops / (float64(width) * 2 * qrEstRate),
		Make: func(c *metasched.AppContext) (cop.COP, error) {
			f, err := apps.NewTaskFarm(c.Grid, c.RSS, c.Binder, c.Weather, tasks, taskFlops, width)
			if err != nil {
				return nil, err
			}
			f.CheckpointEvery = 2
			return f, nil
		},
	}
}

// runContentionCell runs one policy x arrival-rate cell on a fresh
// environment and reduces the job records to the cell metrics.
func runContentionCell(o Options, cfg ContentionConfig, policy metasched.Policy, interarrival float64) (*ContentionResult, error) {
	env := o.NewEnv(cfg.Seed, topology.QRTestbed, "metasched", cfg.NWSPeriod)
	var sch *metasched.Scheduler
	mcfg := metasched.Config{
		Sim: env.Sim, Grid: env.Grid, GIS: env.GIS, Storage: env.Storage,
		Binder: env.Binder, Weather: env.Weather,
		Policy: policy, Tick: cfg.Tick, StarveAfter: cfg.StarveAfter,
		OnIdle: func() {
			if env.Weather != nil {
				env.Weather.Stop()
			}
			sch.Stop()
		},
	}
	s, err := metasched.New(mcfg)
	if err != nil {
		return nil, err
	}
	sch = s
	for _, spec := range contentionStream(cfg, interarrival) {
		if _, err := sch.Submit(spec); err != nil {
			return nil, err
		}
	}
	sch.Start()
	env.Sim.RunUntil(cfg.RunCap)

	res := &ContentionResult{
		Policy: policy, Interarrival: interarrival,
		Jobs:          cfg.Jobs,
		PreemptOrders: sch.PreemptOrders(),
		Preempted:     sch.PreemptApplied(),
	}
	var waits, slowdowns []float64
	for _, rec := range sch.Records() {
		res.Requeues += rec.Requeues
		switch rec.State {
		case "done":
			res.Done++
			if rec.Finish > res.Makespan {
				res.Makespan = rec.Finish
			}
			waits = append(waits, rec.Wait)
			if rec.Turnaround > 0 {
				ideal := rec.Turnaround - rec.Wait
				if ideal > 0 {
					slowdowns = append(slowdowns, rec.Turnaround/ideal)
				}
			}
		case "failed":
			res.Failed++
		}
	}
	res.MeanWait, res.P95Wait = meanP95(waits)
	res.Fairness = jainIndex(slowdowns)
	if res.Makespan > 0 {
		res.Utilization = sch.Leases().BusyNodeSeconds() /
			(float64(len(env.Grid.Nodes())) * res.Makespan)
	}
	return res, nil
}

// RunContention sweeps arrival rate x queue policy.
func RunContention(o Options, cfg ContentionConfig) ([]ContentionResult, error) {
	var out []ContentionResult
	for _, ia := range cfg.Interarrivals {
		for _, policy := range cfg.Policies {
			r, err := runContentionCell(o, cfg, policy, ia)
			if err != nil {
				return nil, fmt.Errorf("contention %s/ia=%g: %w", policy, ia, err)
			}
			out = append(out, *r)
		}
	}
	return out, nil
}

// meanP95 reduces a sample to its mean and 95th percentile.
func meanP95(xs []float64) (mean, p95 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	idx := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(sorted)), sorted[idx]
}

// jainIndex is Jain's fairness index (sum x)^2 / (n * sum x^2), 1 when all
// jobs suffer identical slowdown.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ContentionTable renders the sweep as a table.
func ContentionTable(res []ContentionResult) *Table {
	t := &Table{Header: []string{
		"policy", "mean_gap_s", "done", "makespan_s", "wait_mean_s",
		"wait_p95_s", "fairness", "util", "preempts", "requeues",
	}}
	for _, r := range res {
		done := fmt.Sprintf("%d/%d", r.Done, r.Jobs)
		if r.Failed > 0 {
			done += fmt.Sprintf(" (%d failed)", r.Failed)
		}
		t.Add(string(r.Policy), Secs(r.Interarrival), done, Secs(r.Makespan),
			Secs(r.MeanWait), Secs(r.P95Wait), fmt.Sprintf("%.3f", r.Fairness),
			fmt.Sprintf("%.3f", r.Utilization),
			fmt.Sprintf("%d/%d", r.PreemptOrders, r.Preempted),
			fmt.Sprint(r.Requeues))
	}
	return t
}

// FormatContention renders the sweep report.
func FormatContention(res []ContentionResult) string {
	return ContentionTable(res).String() +
		"\n(preempts = stop-and-shrink orders issued / applied via SRS;" +
		"\n fairness = Jain index over per-job slowdowns)\n"
}
