// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation on the emulated Grid: the Figure 3 QR
// stop/restart bars with their phase breakdown, the §4.1.2 rescheduler
// decision table, the Figure 4 N-body process-swapping progress trace, the
// §3.3 EMAN workflow-scheduling demonstration, and the ablation studies
// (heuristic comparison, swap policies, opportunistic rescheduling).
package experiments

import (
	"fmt"
	"strings"

	"grads/internal/binder"
	"grads/internal/gis"
	"grads/internal/ibp"
	"grads/internal/nws"
	"grads/internal/simcore"
	"grads/internal/srs"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Options is the run configuration every driver takes explicitly: nothing
// in this package holds run state between calls, so two runs in one process
// cannot interfere. The zero value is the published configuration.
type Options struct {
	// Seed, when non-zero, replaces the default RNG seed of every seeded
	// experiment (the gradsim -seed flag).
	Seed int64
	// Telemetry, when set, is attached to every simulation the run creates,
	// so one invocation collects one event stream across all its
	// experiments.
	Telemetry *telemetry.Telemetry
	// ReferenceSolver runs the network on the reference (global
	// progressive-filling) solver instead of the incremental one. The two
	// are trace-identical; the knob exists so the equivalence can be shown on
	// the published experiments.
	ReferenceSolver bool
	// Shards is the kernel count of the sharded experiments (scale-smoke).
	// Zero or 1 is the single-kernel determinism oracle; any N produces
	// byte-identical traces (see internal/shardsim).
	Shards int
}

// Seeds resolves a run's seeds: the Seed override alone when set, else the
// given defaults.
func (o Options) Seeds(defaults ...int64) []int64 {
	if o.Seed != 0 {
		return []int64{o.Seed}
	}
	return defaults
}

// SeedOr resolves a single-seed run: the Seed override when set, else def.
func (o Options) SeedOr(def int64) int64 { return o.Seeds(def)[0] }

// newSim creates a kernel with the run's telemetry hub attached.
func (o Options) newSim(seed int64) *simcore.Sim {
	sim := simcore.New(seed)
	if o.Telemetry != nil {
		sim.SetTelemetry(o.Telemetry)
	}
	return sim
}

// Env bundles one fully wired GrADS execution environment on a fresh
// deterministic simulation.
type Env struct {
	Sim     *simcore.Sim
	Grid    *topology.Grid
	GIS     *gis.Service
	Storage *ibp.System
	Binder  *binder.Binder
	Weather *nws.Service
	RSS     *srs.RSS
}

// GridBuilder constructs a testbed on a simulation.
type GridBuilder func(*simcore.Sim) *topology.Grid

// NewEnv wires GIS (with the standard software registered everywhere), IBP
// depots, the binder, the weather service, and an RSS for appName over the
// given testbed. Seed fixes all randomness. It is Options{}.NewEnv.
func NewEnv(seed int64, build GridBuilder, appName string, nwsPeriod float64) *Env {
	return Options{}.NewEnv(seed, build, appName, nwsPeriod)
}

// NewEnv is the package NewEnv under the run's options. The telemetry hub is
// attached before build runs, because the CPU model registers its counters
// when the grid is constructed.
func (o Options) NewEnv(seed int64, build GridBuilder, appName string, nwsPeriod float64) *Env {
	sim := o.newSim(seed)
	grid := build(sim)
	if o.ReferenceSolver {
		grid.Net.SetReferenceSolver(true)
	}
	g := gis.New(sim, grid)
	g.RegisterSoftwareEverywhere(binder.LocalBinderPkg, "/opt/grads/binder")
	for _, lib := range []string{"scalapack", "blas", "srs", "autopilot", "eman", "mpi"} {
		g.RegisterSoftwareEverywhere(lib, "/opt/"+lib)
	}
	st := ibp.New(sim, grid)
	st.AddDepotsEverywhere()
	env := &Env{
		Sim:     sim,
		Grid:    grid,
		GIS:     g,
		Storage: st,
		Binder:  binder.New(sim, g),
		RSS:     srs.NewRSS(sim, st, appName),
	}
	if nwsPeriod > 0 {
		env.Weather = nws.Start(sim, grid, nwsPeriod)
	}
	return env
}

// Table renders an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (for plotting the
// figures with external tools).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Secs formats seconds compactly.
func Secs(v float64) string { return fmt.Sprintf("%.1f", v) }
