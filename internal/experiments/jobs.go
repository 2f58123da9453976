package experiments

import (
	"fmt"

	"grads/internal/apps"
	"grads/internal/cop"
	"grads/internal/linalg"
	"grads/internal/metasched"
	"grads/internal/topology"
)

// JobStreamConfig parameterizes an explicit -jobs submission-stream run:
// the parsed stream, the queue policy, and the broker knobs (defaults from
// the contention sweep).
type JobStreamConfig struct {
	Entries     []metasched.StreamEntry
	Policy      metasched.Policy
	Seed        int64
	Tick        float64
	StarveAfter float64
	NWSPeriod   float64
	RunCap      float64
}

// DefaultJobStreamConfig wraps a parsed stream with the standard broker
// configuration on the QR testbed.
func DefaultJobStreamConfig(entries []metasched.StreamEntry) JobStreamConfig {
	return JobStreamConfig{
		Entries: entries, Policy: metasched.PolicyBackfill,
		Seed: 2, Tick: 5, StarveAfter: 180, NWSPeriod: 30, RunCap: 200000,
	}
}

// streamJobSpec binds one parsed stream entry to a runnable submission:
// a QR or task-farm COP constructor plus the broker-facing shape. Missing
// runtime estimates are derived from the job shape exactly like the
// contention sweep's generator derives them.
func streamJobSpec(i int, e metasched.StreamEntry) metasched.JobSpec {
	spec := metasched.JobSpec{
		Name:       fmt.Sprintf("job%02d-%s", i, e.Kind),
		Submit:     e.Submit,
		Width:      e.Width,
		MinWidth:   e.MinWidth,
		Bid:        e.Bid,
		EstRuntime: e.Est,
	}
	if spec.Bid == 0 {
		spec.Bid = 1
	}
	switch e.Kind {
	case "qr":
		n, width := e.N, e.Width
		spec.Kind = "qr"
		if spec.EstRuntime == 0 {
			spec.EstRuntime = linalg.QRFlops(float64(n)) / (float64(width) * qrEstRate)
		}
		spec.Make = func(c *metasched.AppContext) (cop.COP, error) {
			q, err := apps.NewQR(c.Grid, c.RSS, c.Binder, n, 100)
			if err != nil {
				return nil, err
			}
			q.SetMaxProcs(width)
			q.CheckpointEvery = 5
			return q, nil
		}
	case "farm":
		const taskFlops = 5e9
		tasks, width := e.Tasks, e.Width
		spec.Kind = "task-farm"
		if spec.MinWidth == 0 {
			spec.MinWidth = 1
		}
		if spec.EstRuntime == 0 {
			spec.EstRuntime = float64(tasks) * taskFlops / (float64(width) * 2 * qrEstRate)
		}
		spec.Make = func(c *metasched.AppContext) (cop.COP, error) {
			f, err := apps.NewTaskFarm(c.Grid, c.RSS, c.Binder, c.Weather, tasks, taskFlops, width)
			if err != nil {
				return nil, err
			}
			f.CheckpointEvery = 2
			return f, nil
		}
	}
	return spec
}

// RunJobStream pushes an explicit submission stream through the
// metascheduler broker on the QR testbed and returns the per-job outcome
// records in submission order.
func RunJobStream(o Options, cfg JobStreamConfig) ([]metasched.Record, error) {
	env := o.NewEnv(cfg.Seed, topology.QRTestbed, "metasched", cfg.NWSPeriod)
	var sch *metasched.Scheduler
	s, err := metasched.New(metasched.Config{
		Sim: env.Sim, Grid: env.Grid, GIS: env.GIS, Storage: env.Storage,
		Binder: env.Binder, Weather: env.Weather,
		Policy: cfg.Policy, Tick: cfg.Tick, StarveAfter: cfg.StarveAfter,
		OnIdle: func() {
			if env.Weather != nil {
				env.Weather.Stop()
			}
			sch.Stop()
		},
	})
	if err != nil {
		return nil, err
	}
	sch = s
	for i, e := range cfg.Entries {
		if _, err := sch.Submit(streamJobSpec(i, e)); err != nil {
			return nil, err
		}
	}
	sch.Start()
	env.Sim.RunUntil(cfg.RunCap)
	return sch.Records(), nil
}

// JobStreamTable renders the per-job records of a stream run.
func JobStreamTable(recs []metasched.Record) *Table {
	t := &Table{Header: []string{
		"job", "kind", "width", "state", "submit_s", "start_s", "finish_s",
		"wait_s", "turnaround_s", "preempts", "requeues",
	}}
	for _, r := range recs {
		t.Add(r.Name, r.Kind, fmt.Sprint(r.Width), r.State,
			Secs(r.Submit), Secs(r.Start), Secs(r.Finish),
			Secs(r.Wait), Secs(r.Turnaround),
			fmt.Sprint(r.Preemptions), fmt.Sprint(r.Requeues))
	}
	return t
}
