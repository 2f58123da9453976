package experiments

import (
	"fmt"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/autopilot"
	"grads/internal/rescheduler"
	"grads/internal/simcore"
	"grads/internal/topology"
)

// Fig3Config parameterizes the §4.1.2 stop/restart experiment.
type Fig3Config struct {
	Sizes []int // matrix sizes (the paper sweeps 6000..12000)
	NB    int   // ScaLAPACK panel width

	// LoadAfterStart is how long after the application's first panel the
	// artificial load is introduced on one UTK node (the paper's "five
	// minutes after the start of the application").
	LoadAfterStart float64
	LoadProcs      float64 // competing processes added (paper: an artificial load)

	// WorstCaseCost reproduces the paper's experimentally determined
	// worst-case rescheduling cost of 900 s used by the deployed
	// rescheduler.
	WorstCaseCost float64

	MonitorPeriod float64
	// UpperTolerance is the contract's initial upper ratio limit. With a
	// single competing process the loaded ratio is just under 2, so the
	// limit sits below that.
	UpperTolerance float64
}

// DefaultFig3Config returns the paper-faithful configuration.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Sizes:          []int{6000, 7000, 8000, 9000, 10000, 11000, 12000},
		NB:             100,
		LoadAfterStart: 300,
		LoadProcs:      1,
		WorstCaseCost:  900,
		MonitorPeriod:  15,
		UpperTolerance: 1.5,
	}
}

// Fig3Row is one matrix size's outcome: the two forced-mode executions
// (the paired bars of Figure 3) plus the decisions the rescheduler would
// take.
type Fig3Row struct {
	N            int
	Stay         *appmgr.Report // no rescheduling (left bar)
	Migrate      *appmgr.Report // rescheduling (right bar)
	StayTotal    float64
	MigrateTotal float64

	ViolationAt float64 // when the contract monitor fired (stay run)

	HonestDecision    bool    // decision with an estimated migration cost
	WorstCaseDecision bool    // decision with the fixed 900 s cost
	HonestCost        float64 // the honest cost estimate
	ActualCost        float64 // measured migration overhead (migrate run)
	MigrationHelps    bool    // ground truth: migrate total < stay total
}

// RunFig3 executes the experiment for every size and returns the rows.
func RunFig3(o Options, cfg Fig3Config) ([]Fig3Row, error) {
	rows := make([]Fig3Row, 0, len(cfg.Sizes))
	for _, n := range cfg.Sizes {
		stay, err := fig3Scenario(o, n, cfg, rescheduler.ModeForceStay)
		if err != nil {
			return nil, fmt.Errorf("fig3 N=%d stay: %w", n, err)
		}
		migrate, err := fig3Scenario(o, n, cfg, rescheduler.ModeForceMigrate)
		if err != nil {
			return nil, fmt.Errorf("fig3 N=%d migrate: %w", n, err)
		}
		row := Fig3Row{
			N:                 n,
			Stay:              stay.report,
			Migrate:           migrate.report,
			StayTotal:         stay.report.Total,
			MigrateTotal:      migrate.report.Total,
			ViolationAt:       stay.violationAt,
			HonestDecision:    stay.honest.Migrate,
			WorstCaseDecision: stay.worstCase.Migrate,
			HonestCost:        stay.honest.MigrationCost,
			MigrationHelps:    migrate.report.Total < stay.report.Total,
		}
		row.ActualCost = migrate.report.Sum(appmgr.PhaseCkptWrite, 0) +
			migrate.report.Sum(appmgr.PhaseCkptRead, 0) +
			migrate.report.Sum(appmgr.PhaseResourceSelection, 2) +
			migrate.report.Sum(appmgr.PhasePerfModeling, 2) +
			migrate.report.Sum(appmgr.PhaseGridOverhead, 2) +
			migrate.report.Sum(appmgr.PhaseAppStart, 2)
		rows = append(rows, row)
	}
	return rows, nil
}

// fig3Run carries one scenario's outputs.
type fig3Run struct {
	report      *appmgr.Report
	violationAt float64
	honest      rescheduler.Decision
	worstCase   rescheduler.Decision
}

// fig3Scenario runs one managed QR execution end to end under the given
// rescheduler mode: schedule on the (initially faster) UTK cluster, inject
// load, detect the contract violation, decide, and (in migrate mode)
// checkpoint, move to UIUC and restart.
func fig3Scenario(o Options, n int, cfg Fig3Config, mode rescheduler.Mode) (*fig3Run, error) {
	env := o.NewEnv(1, topology.QRTestbed, "qr", 10)
	qr, err := apps.NewQR(env.Grid, env.RSS, env.Binder, n, cfg.NB)
	if err != nil {
		return nil, err
	}
	mgr := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgr.RSS = env.RSS

	resch := rescheduler.New(env.Grid, env.Weather)
	resch.Mode = mode
	resch.WorstCaseCost = cfg.WorstCaseCost

	out := &fig3Run{}
	contract := &autopilot.Contract{
		Name:       fmt.Sprintf("qr-%d", n),
		Predicted:  autopilot.Sensor(qr.PredictedPanelSensor()),
		Actual:     autopilot.Sensor(qr.ActualPanelSensor()),
		UpperLimit: cfg.UpperTolerance,
	}
	mon := autopilot.NewMonitor(env.Sim, contract, cfg.MonitorPeriod)
	mon.OnViolation = func(v autopilot.Violation) bool {
		if out.violationAt == 0 {
			out.violationAt = v.Time
			// Record what each decision policy would do, regardless of
			// the forced mode actually driving this run.
			candidates := rescheduler.SiteCandidates(env.Grid.Nodes())
			honest := rescheduler.New(env.Grid, env.Weather)
			out.honest = honest.Evaluate(qr, qr.CurNodes(), candidates)
			pess := rescheduler.New(env.Grid, env.Weather)
			pess.WorstCaseCost = cfg.WorstCaseCost
			out.worstCase = pess.Evaluate(qr, qr.CurNodes(), candidates)
		}
		d := resch.Evaluate(qr, qr.CurNodes(), rescheduler.SiteCandidates(env.Grid.Nodes()))
		if !d.Migrate {
			return false
		}
		mgr.NextNodes = d.Target
		env.RSS.RequestStop(len(qr.CurNodes()))
		return true
	}
	mon.Start()

	// Artificial load on the first scheduled node, LoadAfterStart seconds
	// after the application's first panel completes.
	env.Sim.Spawn("load-injector", func(p *simcore.Proc) {
		for qr.DonePanels() == 0 {
			if p.Sleep(1) != nil {
				return
			}
		}
		if p.Sleep(cfg.LoadAfterStart) != nil {
			return
		}
		nodes := qr.CurNodes()
		if len(nodes) > 0 {
			nodes[0].CPU.SetExternalLoad(cfg.LoadProcs)
		}
	})

	var execErr error
	env.Sim.Spawn("user", func(p *simcore.Proc) {
		out.report, execErr = mgr.Execute(p, qr, env.Grid.Nodes())
		mon.Stop()
		if env.Weather != nil {
			env.Weather.Stop()
		}
	})
	env.Sim.Run()
	if execErr != nil {
		return nil, execErr
	}
	if out.report == nil {
		return nil, fmt.Errorf("fig3: execution did not complete")
	}
	return out, nil
}

// FormatFig3 renders the Figure 3 bars (phase breakdown per size, left =
// no rescheduling, right = rescheduling) as a table.
func FormatFig3(rows []Fig3Row) string {
	t := &Table{Header: []string{
		"N", "mode", "rsel", "model", "grid", "start", "ckptW", "ckptR",
		"rsel2", "model2", "grid2", "start2", "app1", "app2", "TOTAL",
	}}
	for _, r := range rows {
		for _, side := range []struct {
			name string
			rep  *appmgr.Report
		}{{"stay", r.Stay}, {"migrate", r.Migrate}} {
			rep := side.rep
			appDur1 := rep.Sum(appmgr.PhaseAppDuration, 1)
			appDur2 := rep.Sum(appmgr.PhaseAppDuration, 2)
			t.Add(
				fmt.Sprintf("%d", r.N), side.name,
				Secs(rep.Sum(appmgr.PhaseResourceSelection, 1)),
				Secs(rep.Sum(appmgr.PhasePerfModeling, 1)),
				Secs(rep.Sum(appmgr.PhaseGridOverhead, 1)),
				Secs(rep.Sum(appmgr.PhaseAppStart, 1)),
				Secs(rep.Sum(appmgr.PhaseCkptWrite, 0)),
				Secs(rep.Sum(appmgr.PhaseCkptRead, 0)),
				Secs(rep.Sum(appmgr.PhaseResourceSelection, 2)),
				Secs(rep.Sum(appmgr.PhasePerfModeling, 2)),
				Secs(rep.Sum(appmgr.PhaseGridOverhead, 2)),
				Secs(rep.Sum(appmgr.PhaseAppStart, 2)),
				Secs(appDur1), Secs(appDur2), Secs(rep.Total),
			)
		}
	}
	return t.String()
}

// Fig3DecisionsTable is the decision table in raw values, for -csv.
func Fig3DecisionsTable(rows []Fig3Row) *Table {
	t := &Table{Header: []string{"n", "stay_s", "migrate_s", "helps", "worstcase_migrates", "honest_migrates", "est_cost_s", "actual_cost_s"}}
	for _, r := range rows {
		t.Add(fmt.Sprint(r.N), fmt.Sprint(r.StayTotal), fmt.Sprint(r.MigrateTotal),
			fmt.Sprint(r.MigrationHelps), fmt.Sprint(r.WorstCaseDecision),
			fmt.Sprint(r.HonestDecision), fmt.Sprint(r.HonestCost), fmt.Sprint(r.ActualCost))
	}
	return t
}

// FormatFig3Decisions renders the §4.1.2 decision narrative: what the
// deployed (worst-case-cost) rescheduler decided per size, what an honest
// estimate would decide, and the ground truth.
func FormatFig3Decisions(rows []Fig3Row) string {
	t := &Table{Header: []string{
		"N", "stay(s)", "migrate(s)", "helps?", "900s-decision", "honest-decision",
		"est-cost(s)", "actual-cost(s)", "900s-correct?",
	}}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	dec := func(b bool) string {
		if b {
			return "migrate"
		}
		return "stay"
	}
	for _, r := range rows {
		t.Add(
			fmt.Sprintf("%d", r.N),
			Secs(r.StayTotal), Secs(r.MigrateTotal),
			yn(r.MigrationHelps),
			dec(r.WorstCaseDecision), dec(r.HonestDecision),
			Secs(r.HonestCost), Secs(r.ActualCost),
			yn(r.WorstCaseDecision == r.MigrationHelps),
		)
	}
	return t.String()
}
