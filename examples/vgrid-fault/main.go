// vgrid-fault demonstrates the two forward-looking capabilities the paper's
// conclusion previews for VGrADS: the application requests a *virtual Grid*
// (a Cluster-class resource aggregate) instead of naming machines, runs the
// QR factorization on it with periodic SRS checkpoints — and when one of
// the vgrid's nodes crashes mid-run, the application manager rolls back to
// the last committed checkpoint and finishes on the surviving resources.
package main

import (
	"fmt"
	"log"

	"grads/internal/appmgr"
	"grads/internal/apps"
	"grads/internal/experiments"
	"grads/internal/simcore"
	"grads/internal/topology"
	"grads/internal/vgrid"
)

func main() {
	env := experiments.NewEnv(1, topology.QRTestbed, "qr", 10)

	// Ask for a cluster of at least 4 IA-32 nodes with 512 MB or more —
	// the vgrid finder decides which concrete machines that means.
	finder := vgrid.NewFinder(env.Grid, env.GIS, env.Weather)
	vg, err := finder.Find(vgrid.Spec{
		Name:     "qr-cluster",
		MinNodes: 4,
		MaxNodes: 8,
		Arch:     topology.ArchIA32,
		MinMemMB: 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vgrid %q bound to %d nodes at %s (lock-step rate %.2f Gflop/s)\n",
		vg.Spec.Name, len(vg.Nodes), vg.Nodes[0].Site().Name, vg.Rate/1e9)

	qr, err := apps.NewQR(env.Grid, env.RSS, env.Binder, 6000, 100)
	if err != nil {
		log.Fatal(err)
	}
	qr.CheckpointEvery = 10 // periodic fault-tolerance checkpoints
	mgr := appmgr.New(env.Sim, env.Grid, env.Binder, env.Weather)
	mgr.RSS = env.RSS
	mgr.NextNodes = vg.Nodes // run inside the vgrid

	// Crash one vgrid node 400 s after the application starts.
	env.Sim.Spawn("chaos", func(p *simcore.Proc) {
		for qr.DonePanels() == 0 {
			if p.Sleep(1) != nil {
				return
			}
		}
		if p.Sleep(400) != nil {
			return
		}
		victim := qr.CurNodes()[0]
		if qr.FailCurrentNode(0) > 0 {
			fmt.Printf("[%8.1f] node %s FAILED (panel %d of %d done, last checkpoint at %d)\n",
				p.Now(), victim.Name(), qr.DonePanels(), qr.Panels(), env.RSS.ResumeMarker())
		}
	})

	env.Sim.Spawn("user", func(p *simcore.Proc) {
		rep, err := mgr.Execute(p, qr, env.Grid.Nodes())
		env.Weather.Stop()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncompleted in %.1f s: %d segment(s), %d failure(s) survived\n",
			rep.Total, rep.Runs, rep.Failures)
		fmt.Printf("  lost work:          %8.1f s\n", rep.Sum(appmgr.PhaseLostWork, 0))
		fmt.Printf("  checkpoint writes:  %8.1f s\n", rep.Sum(appmgr.PhaseCkptWrite, 0))
		fmt.Printf("  checkpoint restore: %8.1f s\n", rep.Sum(appmgr.PhaseCkptRead, 0))
		fmt.Printf("  final resources:   ")
		for _, n := range qr.CurNodes() {
			fmt.Printf(" %s", n.Name())
		}
		fmt.Println()
	})
	env.Sim.Run()
}
