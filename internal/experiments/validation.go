package experiments

import (
	"fmt"
	"math"

	"grads/internal/simcore"
	"grads/internal/topology"
)

// The paper validated the MicroGrid against the MacroGrid by running "very
// similar experiments" on both and comparing behavior (§1, §4.2). This
// driver replays the Figure 4 process-swapping scenario on the emulated
// MicroGrid testbed and on the equivalent MacroGrid slice and compares the
// progress traces.

// MacroGridSlice builds the MacroGrid counterpart of the §4.2.2 virtual
// Grid: three UTK-class, three UIUC-class and one UCSD node with the same
// clock rates, on production-like (rather than emulated) links — 100 Mb
// Ethernet LANs instead of the MicroGrid's configured GigE.
func MacroGridSlice(sim *simcore.Sim) *topology.Grid {
	g := topology.NewGrid(sim)
	g.AddSite("UTK", topology.Ethernet100, topology.LANLatency)
	g.AddSite("UIUC", topology.Ethernet100, topology.LANLatency)
	g.AddSite("UCSD", topology.Ethernet100, topology.LANLatency)
	for i := 1; i <= 3; i++ {
		g.AddNode(topology.NodeSpec{Name: fmt.Sprintf("utk%d", i), Site: "UTK",
			Arch: topology.ArchIA32, MHz: 550, FlopsPerCycle: 0.4, MemMB: 256})
		g.AddNode(topology.NodeSpec{Name: fmt.Sprintf("uiuc%d", i), Site: "UIUC",
			Arch: topology.ArchIA32, MHz: 450, FlopsPerCycle: 0.4, MemMB: 256})
	}
	g.AddNode(topology.NodeSpec{Name: "ucsd1", Site: "UCSD",
		Arch: topology.ArchIA32, MHz: 1700, FlopsPerCycle: 0.8, MemMB: 1024})
	g.Connect("UTK", "UIUC", topology.Ethernet100, 0.011)
	g.Connect("UCSD", "UTK", topology.Ethernet100, 0.030)
	g.Connect("UCSD", "UIUC", topology.Ethernet100, 0.030)
	return g
}

// ValidationResult compares the two testbeds' behavior on the same
// scenario.
type ValidationResult struct {
	MicroCompletion float64
	MacroCompletion float64
	MicroSwapAt     float64
	MacroSwapAt     float64
	// MaxProgressSkew is the largest per-iteration completion-time
	// difference between the two traces, as a fraction of the run.
	MaxProgressSkew float64
}

// RunValidation replays the Figure 4 scenario on both testbeds.
func RunValidation(o Options, cfg Fig4Config) (*ValidationResult, error) {
	micro, microDone, err := fig4Run(o, cfg, cfg.Policy, topology.MicroGridTestbed)
	if err != nil {
		return nil, fmt.Errorf("microgrid: %w", err)
	}
	macro, macroDone, err := fig4Run(o, cfg, cfg.Policy, MacroGridSlice)
	if err != nil {
		return nil, fmt.Errorf("macrogrid: %w", err)
	}
	res := &ValidationResult{MicroCompletion: microDone, MacroCompletion: macroDone}
	if st := micro.SwapTimes(); len(st) > 0 {
		res.MicroSwapAt = st[len(st)-1]
	}
	if st := macro.SwapTimes(); len(st) > 0 {
		res.MacroSwapAt = st[len(st)-1]
	}
	// Compare per-iteration completion times.
	macroAt := map[int]float64{}
	for _, m := range macro.Progress() {
		macroAt[m.Iter] = m.Time
	}
	scale := math.Max(microDone, macroDone)
	for _, m := range micro.Progress() {
		if mt, ok := macroAt[m.Iter]; ok && scale > 0 {
			skew := math.Abs(m.Time-mt) / scale
			if skew > res.MaxProgressSkew {
				res.MaxProgressSkew = skew
			}
		}
	}
	return res, nil
}

// FormatValidation renders the cross-testbed comparison.
func FormatValidation(r *ValidationResult) string {
	t := &Table{Header: []string{"metric", "MicroGrid", "MacroGrid slice"}}
	t.Add("completion (s)", Secs(r.MicroCompletion), Secs(r.MacroCompletion))
	t.Add("last swap at (s)", Secs(r.MicroSwapAt), Secs(r.MacroSwapAt))
	s := t.String()
	s += fmt.Sprintf("\nmax per-iteration progress skew: %.1f%% of the run\n", 100*r.MaxProgressSkew)
	return s
}
