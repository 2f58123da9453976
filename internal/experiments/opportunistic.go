package experiments

import (
	"fmt"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/rescheduler"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/topology"
)

// OpportunisticConfig parameterizes the §4.1.1 opportunistic-rescheduling
// demonstration: a short job holds the fast cluster while a long job runs
// on the slow one; when the short job completes, the rescheduler notices
// the freed resources and migrates the long job onto them.
type OpportunisticConfig struct {
	ShortN int // matrix size of the job on the fast (UTK) cluster
	LongN  int // matrix size of the job on the slow (UIUC) cluster
}

// DefaultOpportunisticConfig sizes the jobs so the short one finishes well
// before the long one and moving the long one is genuinely profitable.
func DefaultOpportunisticConfig() OpportunisticConfig {
	return OpportunisticConfig{ShortN: 4000, LongN: 14000}
}

// OpportunisticResult reports the timeline.
type OpportunisticResult struct {
	ShortDone    float64 // completion of the fast-cluster job
	MigratedAt   float64 // when the long job was asked to move (0 = never)
	LongTotal    float64 // long job total with opportunistic rescheduling
	LongBaseline float64 // long job total pinned to the slow cluster
	Decision     rescheduler.Decision
}

// RunOpportunistic executes the two-job scenario with and without the
// opportunistic rescheduler.
func RunOpportunistic(o Options, cfg OpportunisticConfig) (*OpportunisticResult, error) {
	withResched, err := opportunisticScenario(o, cfg, true)
	if err != nil {
		return nil, err
	}
	baseline, err := opportunisticScenario(o, cfg, false)
	if err != nil {
		return nil, err
	}
	withResched.LongBaseline = baseline.LongTotal
	return withResched, nil
}

func opportunisticScenario(o Options, cfg OpportunisticConfig, enabled bool) (*OpportunisticResult, error) {
	env := o.NewEnv(1, topology.QRTestbed, "multi", 10)
	utk := env.Grid.Site("UTK").Nodes()
	uiuc := env.Grid.Site("UIUC").Nodes()
	out := &OpportunisticResult{}

	// Two independent applications with their own RSS daemons.
	rssShort := srs.NewRSS(env.Sim, env.Storage, "qr-short")
	rssLong := srs.NewRSS(env.Sim, env.Storage, "qr-long")
	short, err := apps.NewQR(env.Grid, rssShort, env.Binder, cfg.ShortN, 100)
	if err != nil {
		return nil, err
	}
	long, err := apps.NewQR(env.Grid, rssLong, env.Binder, cfg.LongN, 100)
	if err != nil {
		return nil, err
	}

	mgrShort := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgrShort.RSS = rssShort
	mgrShort.NextNodes = utk
	mgrLong := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgrLong.RSS = rssLong
	mgrLong.NextNodes = uiuc

	resch := rescheduler.New(env.Grid, env.Weather)
	daemon := rescheduler.NewDaemon(env.Sim, resch, nil)
	daemon.Register(&rescheduler.ManagedApp{
		Name:    "qr-long",
		App:     long,
		Current: uiuc,
		OnMigrate: func(d rescheduler.Decision) bool {
			out.MigratedAt = env.Sim.Now()
			out.Decision = d
			mgrLong.NextNodes = d.Target
			rssLong.RequestStop(len(long.CurNodes()))
			return true
		},
	})
	daemon.Register(&rescheduler.ManagedApp{Name: "qr-short", App: short, Current: utk})

	var errShort, errLong error
	env.Sim.Spawn("user-short", func(p *simcore.Proc) {
		_, errShort = mgrShort.Execute(p, short, utk)
		out.ShortDone = p.Now()
		if enabled {
			daemon.AppCompleted("qr-short")
		}
	})
	env.Sim.Spawn("user-long", func(p *simcore.Proc) {
		rep, err := mgrLong.Execute(p, long, uiuc)
		errLong = err
		if rep != nil {
			out.LongTotal = rep.Total
		}
		if env.Weather != nil {
			env.Weather.Stop()
		}
	})
	env.Sim.Run()
	if errShort != nil {
		return nil, fmt.Errorf("short job: %w", errShort)
	}
	if errLong != nil {
		return nil, fmt.Errorf("long job: %w", errLong)
	}
	return out, nil
}

// FormatOpportunistic renders the timeline comparison.
func FormatOpportunistic(r *OpportunisticResult) string {
	t := &Table{Header: []string{"event", "value"}}
	t.Add("short job completed (s)", Secs(r.ShortDone))
	if r.MigratedAt > 0 {
		t.Add("opportunistic migration at (s)", Secs(r.MigratedAt))
		t.Add("migration target", r.Decision.Target[0].Site().Name)
		t.Add("predicted benefit (s)", Secs(r.Decision.CurrentRemaining-r.Decision.TargetRemaining-r.Decision.MigrationCost))
	} else {
		t.Add("opportunistic migration", "did not trigger")
	}
	t.Add("long job total, opportunistic (s)", Secs(r.LongTotal))
	t.Add("long job total, pinned (s)", Secs(r.LongBaseline))
	return t.String()
}
