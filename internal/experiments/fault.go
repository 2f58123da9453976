package experiments

import (
	"fmt"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// FaultConfig parameterizes the fault-tolerance extension study (the
// capability the paper's conclusion previews for VGrADS): a node hosting
// the QR run crashes mid-execution and the application manager recovers
// from the last committed periodic checkpoint.
type FaultConfig struct {
	N          int
	NB         int
	CrashAfter float64 // seconds after the first panel completes
	// Intervals are the periodic-checkpoint settings to compare, in
	// panels; 0 means no checkpoints (recovery restarts from scratch).
	Intervals []int
}

// DefaultFaultConfig crashes one node about 800 s into an N=8000 run
// (past the first checkpoint of every interval under comparison; QR panels
// are front-loaded, so panel 20 of 80 lands at ~705 s).
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{N: 8000, NB: 100, CrashAfter: 800, Intervals: []int{0, 20, 5}}
}

// FaultResult is one configuration's outcome.
type FaultResult struct {
	Interval   int     // panels between checkpoints (0 = none, -1 = no crash)
	Total      float64 // end-to-end completion time
	LostWork   float64 // discarded execution time
	CkptWrite  float64 // cumulative checkpoint-write time
	CkptRead   float64 // recovery restore time
	Recoveries int
}

// RunFault executes the crash scenario for every checkpoint interval plus a
// crash-free baseline.
func RunFault(o Options, cfg FaultConfig) ([]FaultResult, error) {
	results := []FaultResult{}
	baseline, err := faultScenario(o, cfg, 0, false)
	if err != nil {
		return nil, fmt.Errorf("fault baseline: %w", err)
	}
	baseline.Interval = -1
	results = append(results, *baseline)
	for _, interval := range cfg.Intervals {
		r, err := faultScenario(o, cfg, interval, true)
		if err != nil {
			return nil, fmt.Errorf("fault interval %d: %w", interval, err)
		}
		results = append(results, *r)
	}
	return results, nil
}

func faultScenario(o Options, cfg FaultConfig, interval int, crash bool) (*FaultResult, error) {
	env := o.NewEnv(1, topology.QRTestbed, "qr", 0)
	qr, err := apps.NewQR(env.Grid, env.RSS, env.Binder, cfg.N, cfg.NB)
	if err != nil {
		return nil, err
	}
	qr.CheckpointEvery = interval
	mgr := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgr.RSS = env.RSS

	if crash {
		env.Sim.Spawn("chaos", func(p *simcore.Proc) {
			for qr.DonePanels() == 0 {
				if p.Sleep(1) != nil {
					return
				}
			}
			if p.Sleep(cfg.CrashAfter) != nil {
				return
			}
			qr.FailCurrentNode(0)
		})
	}

	var rep *appmgr.Report
	var execErr error
	env.Sim.Spawn("user", func(p *simcore.Proc) {
		rep, execErr = mgr.Execute(p, qr, env.Grid.Nodes())
	})
	env.Sim.Run()
	if execErr != nil {
		return nil, execErr
	}
	return &FaultResult{
		Interval:   interval,
		Total:      rep.Total,
		LostWork:   rep.Sum(appmgr.PhaseLostWork, 0),
		CkptWrite:  rep.Sum(appmgr.PhaseCkptWrite, 0),
		CkptRead:   rep.Sum(appmgr.PhaseCkptRead, 0),
		Recoveries: rep.Failures,
	}, nil
}

// FaultTable is the study in raw values, for -csv.
func FaultTable(results []FaultResult) *Table {
	t := &Table{Header: []string{"interval_panels", "total_s", "lost_work_s", "ckpt_write_s", "restore_s", "recoveries"}}
	for _, r := range results {
		t.Add(fmt.Sprint(r.Interval), fmt.Sprint(r.Total), fmt.Sprint(r.LostWork),
			fmt.Sprint(r.CkptWrite), fmt.Sprint(r.CkptRead), fmt.Sprint(r.Recoveries))
	}
	return t
}

// FormatFault renders the study.
func FormatFault(results []FaultResult) string {
	t := &Table{Header: []string{"checkpointing", "total(s)", "lost-work(s)", "ckpt-write(s)", "restore(s)", "recoveries"}}
	for _, r := range results {
		label := "none (restart from scratch)"
		switch {
		case r.Interval < 0:
			label = "no crash (baseline)"
		case r.Interval > 0:
			label = fmt.Sprintf("every %d panels", r.Interval)
		}
		t.Add(label, Secs(r.Total), Secs(r.LostWork), Secs(r.CkptWrite), Secs(r.CkptRead),
			fmt.Sprintf("%d", r.Recoveries))
	}
	return t.String()
}
