// Package rescheduler implements the GrADS rescheduler of §4: it evaluates
// whether migrating a running application is profitable — comparing the
// predicted remaining execution time on the current resources against the
// predicted remaining time on candidate resources plus the migration
// overhead — and operates in two modes: migration on request (triggered by
// contract-monitor violations) and opportunistic migration (triggered by
// another application's completion freeing resources).
//
// The default/forced operating modes of §4.1.2 are supported, as is the
// paper's experimentally-determined worst-case migration cost (900 s in the
// QR experiments), which is what produced the documented wrong decision at
// matrix size 8000.
package rescheduler

import (
	"fmt"
	"math"
	"sort"

	"grads/internal/nws"
	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Mode selects the §4.1.2 operating mode.
type Mode int

// Operating modes: Default decides on predicted benefit; the forced modes
// invert/pin the decision for experimental comparison.
const (
	ModeDefault Mode = iota
	ModeForceMigrate
	ModeForceStay
)

// Estimator exposes what the rescheduler needs from an application's COP:
// its performance model (remaining time on a node set) and its migration
// footprint.
type Estimator interface {
	// RemainingTime predicts the remaining execution time on nodes, where
	// avail returns each node's forecast CPU availability.
	RemainingTime(nodes []*topology.Node, avail func(*topology.Node) float64) float64
	// CheckpointBytes is the volume of user data a migration must move.
	CheckpointBytes() float64
	// RestartOverhead is the fixed cost of restarting (resource selection,
	// binding, launch) on new resources.
	RestartOverhead() float64
}

// Decision is the outcome of one evaluation.
type Decision struct {
	Migrate          bool
	Target           []*topology.Node
	CurrentRemaining float64
	TargetRemaining  float64
	MigrationCost    float64
	Reason           string
}

// Rescheduler evaluates migration profitability.
type Rescheduler struct {
	Grid    *topology.Grid
	Weather *nws.Service
	Mode    Mode

	// WorstCaseCost, when positive, replaces the estimated migration cost
	// with a fixed pessimistic bound (the paper used 900 s).
	WorstCaseCost float64

	// MinBenefit is the required predicted gain before migrating.
	MinBenefit float64
}

// New creates a default-mode rescheduler.
func New(grid *topology.Grid, weather *nws.Service) *Rescheduler {
	return &Rescheduler{Grid: grid, Weather: weather}
}

// avail returns the forecast availability of a node, falling back to the
// instantaneous CPU measurement when no weather service is wired up.
func (r *Rescheduler) avail(n *topology.Node) float64 {
	if r.Weather != nil {
		return r.Weather.CPUForecast(n.Name())
	}
	return n.CPU.Availability()
}

// EstimateMigrationCost predicts the overhead of moving the application
// from its current nodes to target nodes: checkpoint write to local disks,
// checkpoint read across the network (the dominant term when sites differ),
// and restart overhead. A configured WorstCaseCost overrides the estimate.
func (r *Rescheduler) EstimateMigrationCost(app Estimator, from, to []*topology.Node) float64 {
	if r.WorstCaseCost > 0 {
		return r.WorstCaseCost
	}
	bytes := app.CheckpointBytes()
	cost := app.RestartOverhead()
	// Write: parallel across source nodes to local disks.
	if len(from) > 0 {
		cost += bytes / float64(len(from)) / 40e6
	}
	// Read: the whole volume crosses from the source to the target site;
	// concurrent readers share the path, so charge the full volume at the
	// forecast path bandwidth.
	if len(from) > 0 && len(to) > 0 {
		a, b := from[0], to[0]
		if a.Site() != b.Site() {
			bw := 1.0
			if r.Weather != nil {
				// A checkpoint transfer outlives short fluctuations:
				// use the long-horizon forecast.
				bw = r.Weather.BandwidthForecastLong(a.Site().Name, b.Site().Name)
			} else {
				bw = r.Grid.Net.EstimateRate(r.Grid.Route(a, b))
			}
			if bw <= 0 {
				bw = 1
			}
			cost += bytes / bw
		} else {
			cost += bytes / a.Site().LAN.Capacity()
		}
		// Disk read at the depots.
		cost += bytes / float64(len(from)) / 40e6
	}
	return cost
}

// Evaluate compares staying on current against the best of the candidate
// node sets. The forced modes override the profitability test but the
// returned numbers always reflect the true prediction.
func (r *Rescheduler) Evaluate(app Estimator, current []*topology.Node, candidates [][]*topology.Node) Decision {
	d := Decision{
		CurrentRemaining: app.RemainingTime(current, r.avail),
		TargetRemaining:  math.Inf(1),
	}
	for _, cand := range candidates {
		if len(cand) == 0 || sameNodes(cand, current) {
			continue
		}
		if t := app.RemainingTime(cand, r.avail); t < d.TargetRemaining {
			d.TargetRemaining = t
			d.Target = cand
		}
	}
	if d.Target == nil {
		d.Reason = "no alternative resources"
		r.emitDecision(d)
		return d
	}
	d.MigrationCost = r.EstimateMigrationCost(app, current, d.Target)
	benefit := d.CurrentRemaining - (d.TargetRemaining + d.MigrationCost)
	switch r.Mode {
	case ModeForceMigrate:
		d.Migrate = true
		d.Reason = "forced migrate"
	case ModeForceStay:
		d.Migrate = false
		d.Reason = "forced stay"
	default:
		d.Migrate = benefit > r.MinBenefit
		if d.Migrate {
			d.Reason = fmt.Sprintf("predicted benefit %.0fs", benefit)
		} else {
			d.Reason = fmt.Sprintf("predicted benefit %.0fs below threshold", benefit)
		}
	}
	r.emitDecision(d)
	return d
}

// emitDecision publishes a migration decision into the grid simulation's
// telemetry, if attached.
func (r *Rescheduler) emitDecision(d Decision) {
	if r.Grid == nil || r.Grid.Sim == nil {
		return
	}
	tel := r.Grid.Sim.Telemetry()
	if tel == nil {
		return
	}
	tel.Counter("rescheduler", "evaluations").Inc()
	if d.Migrate {
		tel.Counter("rescheduler", "migrate_decisions").Inc()
	}
	tel.Emit(telemetry.Event{
		Type: telemetry.EvReschedDecision, Comp: "rescheduler",
		Args: []telemetry.Arg{
			telemetry.B("migrate", d.Migrate),
			telemetry.F("current_remaining", d.CurrentRemaining),
			telemetry.F("target_remaining", d.TargetRemaining),
			telemetry.F("migration_cost", d.MigrationCost),
			telemetry.S("reason", d.Reason),
		},
	})
}

// sameNodes reports whether two node sets are identical as sets.
func sameNodes(a, b []*topology.Node) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*topology.Node]bool, len(a))
	for _, n := range a {
		seen[n] = true
	}
	for _, n := range b {
		if !seen[n] {
			return false
		}
	}
	return true
}

// SiteCandidates groups a resource pool into per-site candidate sets,
// sorted by site name — the natural alternatives for a tightly coupled MPI
// application that must run within one cluster.
func SiteCandidates(pool []*topology.Node) [][]*topology.Node {
	bySite := make(map[string][]*topology.Node)
	for _, n := range pool {
		bySite[n.Site().Name] = append(bySite[n.Site().Name], n)
	}
	names := make([]string, 0, len(bySite))
	for s := range bySite {
		names = append(names, s)
	}
	sort.Strings(names)
	out := make([][]*topology.Node, 0, len(names))
	for _, s := range names {
		set := bySite[s]
		sort.Slice(set, func(i, j int) bool { return set[i].Name() < set[j].Name() })
		out = append(out, set)
	}
	return out
}

// ManagedApp registers a running application with the opportunistic daemon.
type ManagedApp struct {
	Name    string
	App     Estimator
	Current []*topology.Node
	// OnMigrate performs the actual migration mechanics (stop, move,
	// restart); it returns false if migration was not carried out.
	OnMigrate func(Decision) bool
}

// Daemon is the rescheduler daemon of §4.1.1: it serves migration requests
// from contract monitors and periodically performs opportunistic
// rescheduling onto resources freed by completed applications.
type Daemon struct {
	sim   *simcore.Sim
	resch *Rescheduler

	apps map[string]*ManagedApp
	pool []*topology.Node // currently free nodes

	requests      int
	opportunistic int
	migrations    int
}

// NewDaemon creates a daemon over free resource pool.
func NewDaemon(sim *simcore.Sim, resch *Rescheduler, freePool []*topology.Node) *Daemon {
	return &Daemon{sim: sim, resch: resch, apps: make(map[string]*ManagedApp), pool: freePool}
}

// Register adds a running application.
func (d *Daemon) Register(app *ManagedApp) { d.apps[app.Name] = app }

// RequestMigration serves a contract-monitor violation for one application
// ("migration on request"). It returns the decision; when the decision is
// to migrate and the app's OnMigrate succeeds, the node bookkeeping moves
// the freed nodes back into the pool.
func (d *Daemon) RequestMigration(name string) Decision {
	d.requests++
	d.sim.Telemetry().Counter("rescheduler", "requests").Inc()
	app, ok := d.apps[name]
	if !ok {
		return Decision{Reason: "unknown application"}
	}
	return d.evaluate(app)
}

// AppCompleted removes a finished application, returns its nodes to the
// pool, and opportunistically re-evaluates every remaining application
// against the enlarged pool.
func (d *Daemon) AppCompleted(name string) {
	app, ok := d.apps[name]
	if !ok {
		return
	}
	delete(d.apps, name)
	d.pool = append(d.pool, app.Current...)
	// Opportunistic pass over remaining apps, in name order for
	// determinism.
	names := make([]string, 0, len(d.apps))
	for n := range d.apps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.opportunistic++
		d.sim.Telemetry().Counter("rescheduler", "opportunistic").Inc()
		d.evaluate(d.apps[n])
	}
}

// evaluate runs the decision and, on migrate, the migration mechanics and
// pool bookkeeping.
func (d *Daemon) evaluate(app *ManagedApp) Decision {
	dec := d.resch.Evaluate(app.App, app.Current, SiteCandidates(d.pool))
	if !dec.Migrate || app.OnMigrate == nil {
		return dec
	}
	if !app.OnMigrate(dec) {
		dec.Migrate = false
		dec.Reason = "migration mechanics failed"
		return dec
	}
	d.migrations++
	d.sim.Telemetry().Counter("rescheduler", "migrations").Inc()
	// Freed nodes return to the pool; target nodes leave it.
	d.pool = append(d.pool, app.Current...)
	inTarget := make(map[*topology.Node]bool, len(dec.Target))
	for _, n := range dec.Target {
		inTarget[n] = true
	}
	var rest []*topology.Node
	for _, n := range d.pool {
		if !inTarget[n] {
			rest = append(rest, n)
		}
	}
	d.pool = rest
	app.Current = dec.Target
	return dec
}
