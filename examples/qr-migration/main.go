// qr-migration walks through one §4.1 stop/migrate/restart episode end to
// end: a ScaLAPACK QR factorization starts on the (faster) UTK cluster, an
// artificial load degrades one node five minutes in, the contract monitor
// detects the violation, the rescheduler finds migration profitable, and
// the application checkpoints, moves to UIUC, and finishes there.
package main

import (
	"fmt"
	"log"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/autopilot"
	"grads/internal/experiments"
	"grads/internal/rescheduler"
	"grads/internal/simcore"
	"grads/internal/topology"
)

func main() {
	const n = 10000
	env := experiments.NewEnv(1, topology.QRTestbed, "qr", 10)
	qr, err := apps.NewQR(env.Grid, env.RSS, env.Binder, n, 100)
	if err != nil {
		log.Fatal(err)
	}
	mgr := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgr.RSS = env.RSS
	resch := rescheduler.New(env.Grid, env.Weather)

	contract := &autopilot.Contract{
		Name:       "qr",
		Predicted:  autopilot.Sensor(qr.PredictedPanelSensor()),
		Actual:     autopilot.Sensor(qr.ActualPanelSensor()),
		UpperLimit: 1.5,
	}
	mon := autopilot.NewMonitor(env.Sim, contract, 15)
	mon.OnViolation = func(v autopilot.Violation) bool {
		fmt.Printf("[%8.1f] contract violation: ratio %.2f (avg %.2f, fuzzy severity %.2f)\n",
			v.Time, v.Ratio, v.AvgRatio, v.Severity)
		d := resch.Evaluate(qr, qr.CurNodes(), rescheduler.SiteCandidates(env.Grid.Nodes()))
		fmt.Printf("[%8.1f] rescheduler: remaining here %.0fs, on %s %.0fs, migration cost %.0fs -> %s\n",
			env.Sim.Now(), d.CurrentRemaining, d.Target[0].Site().Name,
			d.TargetRemaining, d.MigrationCost, d.Reason)
		if !d.Migrate {
			return false
		}
		mgr.NextNodes = d.Target
		env.RSS.RequestStop(len(qr.CurNodes()))
		return true
	}
	mon.Start()

	// The artificial load lands on the first scheduled node 300 s after
	// the application starts making progress.
	env.Sim.Spawn("load", func(p *simcore.Proc) {
		for qr.DonePanels() == 0 {
			if p.Sleep(1) != nil {
				return
			}
		}
		if p.Sleep(300) != nil {
			return
		}
		node := qr.CurNodes()[0]
		node.CPU.SetExternalLoad(1)
		fmt.Printf("[%8.1f] artificial load introduced on %s\n", p.Now(), node.Name())
	})

	env.Sim.Spawn("user", func(p *simcore.Proc) {
		rep, err := mgr.Execute(p, qr, env.Grid.Nodes())
		mon.Stop()
		env.Weather.Stop()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nQR N=%d finished in %.1f s across %d execution segment(s)\n",
			n, rep.Total, rep.Runs)
		for _, ph := range rep.Phases {
			fmt.Printf("  run %d  %-22s %8.1f s\n", ph.Run, ph.Name, ph.Duration)
		}
		fmt.Println("\ncontract viewer (performance contract validation activity):")
		trace := mon.Trace()
		if len(trace) > 24 {
			trace = trace[len(trace)-24:]
		}
		fmt.Print(autopilot.FormatTrace(trace, 40))
	})
	env.Sim.Run()
}
