package main

import (
	"fmt"
	"sync"

	"grads/internal/chaossoak"
	"grads/internal/telemetry"
)

// soakBroker runs chaos soaks: seeded QR and task-farm job streams through
// the backfill metascheduler under seeded fault schedules, each sized past
// the knee where the backfill queue stays deep, so the admission round and
// the backfill mapper dominate.
type soakBroker struct {
	cfgs []chaossoak.Config
}

const (
	// soakJobs is one stream's length. A stream keeps the published soak's
	// arrival density (2400 jobs on a 180000 s fault horizon): arrivals
	// outpace the QR testbed, so the backfill queue stays deep for the
	// whole stream and the admission round dominates the host cost.
	soakJobs    = 250
	soakHorizon = 180000 * soakJobs / 2400
	// soakStreams independent soaks per rep average out how much one
	// seed's fault schedule deepens the queue.
	soakStreams = 6
)

func (w *soakBroker) setup(seed int64, tiny bool, _ *spans) error {
	streams := soakStreams
	if tiny {
		streams = 1
	}
	w.cfgs = w.cfgs[:0]
	for k := 0; k < streams; k++ {
		cfg := chaossoak.DefaultConfig()
		// The published soak demands a million kernel events; these
		// streams are sized by their wall time instead.
		cfg.Jobs, cfg.Horizon, cfg.MinKernelEvents = soakJobs, soakHorizon, 0
		if tiny {
			cfg = chaossoak.SmokeConfig(0)
		}
		cfg.Seed = seed*soakStreams + int64(k)
		w.cfgs = append(w.cfgs, cfg)
	}
	return nil
}

func (w *soakBroker) run(tel *telemetry.Telemetry, sp *spans) *outcome {
	var jobs *jobEvents
	if tel != nil {
		jobs = &jobEvents{admitted: map[string]float64{}}
		tel.AddSink(jobs)
	}
	o := &outcome{}
	d := newDigester()
	for _, cfg := range w.cfgs {
		if jobs != nil {
			clear(jobs.admitted) // job names repeat across streams
		}
		cfg.Telemetry = tel
		o.attempted += cfg.Jobs
		id := sp.begin("chaossoak.Run")
		res, err := chaossoak.Run(cfg)
		sp.end(id)
		if err != nil {
			o.fail(cfg.Jobs, "soak seed %d: %v", cfg.Seed, err)
			continue
		}
		failed := res.LostJobs + len(res.Violations)
		if failed > cfg.Jobs {
			failed = cfg.Jobs
		}
		if failed > 0 {
			first := ""
			if len(res.Violations) > 0 {
				v := res.Violations[0]
				first = fmt.Sprintf("; first violation %s at t=%g: %s", v.Invariant, v.T, v.Detail)
			}
			o.fail(failed, "soak seed %d: %d jobs lost, %d invariant violations%s",
				cfg.Seed, res.LostJobs, len(res.Violations), first)
		}

		o.events += res.KernelEvents
		o.tasks += res.Done + res.Failed + res.Quarantined
		o.makespan += res.Elapsed / float64(len(w.cfgs))
		o.count("metasched.admissions", float64(res.Admissions))
		o.count("metasched.requeues", float64(res.Requeues))
		o.count("metasched.preempts", float64(res.Preempts))
		o.count("resilience.retries", float64(res.Retries))
		o.count("resilience.breaker_opens", float64(res.BreakerOpens))
		o.count("faultinject.injected", float64(res.Injected))
		o.count("simcore.events", float64(res.KernelEvents))

		d.f(res.Elapsed, res.MTTRMean)
		d.i(int(res.KernelEvents), res.Done, res.Failed, res.Quarantined, res.LostJobs,
			res.Admissions, res.Requeues, res.Preempts, res.Brownouts, res.Injected,
			res.Recovered, res.Retries, res.GaveUp, res.BreakerOpens, res.FastFails,
			res.CorruptDetected, res.LineageFallbacks, len(res.Violations))
		for _, c := range res.PerClass {
			d.s(c.Class)
			d.i(c.Jobs, c.Done, c.Failed, c.Quarantined)
			d.f(c.MeanTurnaround, c.MeanRequeues)
		}
	}
	if jobs != nil {
		o.lat, o.achieved, o.bound = jobs.lat, jobs.achieved, jobs.leased
	}
	o.digest = d.sum()
	return o
}

// jobEvents collects each finished job's turnaround, and the time from its
// first admission to its finish, from the broker's trace.
// chaossoak.Result reports only per-class means, so the per-job
// distribution comes from the traced rep.
type jobEvents struct {
	mu       sync.Mutex
	admitted map[string]float64 // job -> first admission time
	lat      []float64
	achieved float64 // summed turnaround of jobs with a first admission
	leased   float64 // summed time from first admission to finish
}

func (j *jobEvents) Emit(e telemetry.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch e.Type {
	case telemetry.EvJobAdmit:
		if _, ok := j.admitted[e.Name]; !ok {
			j.admitted[e.Name] = e.T
		}
	case telemetry.EvJobDone:
		v, ok := e.Arg("turnaround")
		ta, isF := v.(float64)
		if !ok || !isF {
			return
		}
		j.lat = append(j.lat, ta)
		if at, ok := j.admitted[e.Name]; ok && e.T > at {
			j.achieved += ta
			j.leased += e.T - at
		}
	}
}

func (j *jobEvents) Close() error { return nil }
