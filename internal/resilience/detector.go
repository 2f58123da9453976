package resilience

import (
	"sort"

	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Detector is a heartbeat-based failure detector: a daemon process that
// polls the liveness of a watched node set every Period seconds and fires a
// callback (plus a detector.suspect telemetry event) when a node stops
// answering. Detection latency is therefore at most one period — the
// emulator's stand-in for a missed-heartbeat timeout.
//
// The detector is level-triggered per transition: each node is suspected
// once per failure, and a recovery observed at a later tick clears the
// suspicion so a subsequent failure fires again.
type Detector struct {
	sim    *simcore.Sim
	grid   *topology.Grid
	period float64

	watched   []string // sorted node names, deterministic sweep order
	suspected map[string]bool

	onFailure  func(node string, at float64)
	onRecovery func(node string, at float64)

	proc     *simcore.Proc
	stopped  bool
	suspects int // total suspect firings
}

// NewDetector creates a detector over the grid polling every period
// seconds (non-positive defaults to 1 s). Watch and the callbacks must be
// set before Start.
func NewDetector(sim *simcore.Sim, grid *topology.Grid, period float64) *Detector {
	if period <= 0 {
		period = 1
	}
	return &Detector{
		sim: sim, grid: grid, period: period,
		suspected: make(map[string]bool),
	}
}

// Watch adds nodes to the monitored set (unknown names are ignored at poll
// time). The sweep order is sorted, so firing order within a tick is
// deterministic.
func (d *Detector) Watch(nodes ...string) {
	d.watched = append(d.watched, nodes...)
	sort.Strings(d.watched)
}

// OnFailure installs the callback fired (from the detector process) when a
// watched node is first seen down.
func (d *Detector) OnFailure(fn func(node string, at float64)) { d.onFailure = fn }

// OnRecovery installs the callback fired when a previously suspected node
// is seen up again.
func (d *Detector) OnRecovery(fn func(node string, at float64)) { d.onRecovery = fn }

// Suspects returns how many failure suspicions the detector has raised.
func (d *Detector) Suspects() int { return d.suspects }

// SuspectedCount returns how many watched nodes are currently suspected
// down — the detector-storm signal that brownout admission shedding keys
// on.
func (d *Detector) SuspectedCount() int { return len(d.suspected) }

// Start spawns the detector daemon.
func (d *Detector) Start() {
	d.proc = d.sim.Spawn("detector", func(p *simcore.Proc) {
		for !d.stopped {
			if err := p.Sleep(d.period); err != nil {
				return
			}
			d.sweep()
		}
	})
}

// Stop terminates the detector daemon.
func (d *Detector) Stop() {
	d.stopped = true
	if d.proc != nil {
		d.proc.Kill()
	}
}

// sweep performs one heartbeat round over the watched set.
func (d *Detector) sweep() {
	now := d.sim.Now()
	for _, name := range d.watched {
		n := d.grid.Node(name)
		if n == nil {
			continue
		}
		down := n.Down()
		switch {
		case down && !d.suspected[name]:
			d.suspected[name] = true
			d.suspects++
			if tel := d.sim.Telemetry(); tel != nil {
				tel.Counter("detector", "suspects").Inc()
				tel.Emit(telemetry.Event{
					Type: telemetry.EvDetectorSuspect, Comp: "detector", Name: name,
					Args: []telemetry.Arg{telemetry.B("down", true)},
				})
			}
			if d.onFailure != nil {
				d.onFailure(name, now)
			}
		case !down && d.suspected[name]:
			delete(d.suspected, name)
			if tel := d.sim.Telemetry(); tel != nil {
				tel.Emit(telemetry.Event{
					Type: telemetry.EvDetectorSuspect, Comp: "detector", Name: name,
					Args: []telemetry.Arg{telemetry.B("down", false)},
				})
			}
			if d.onRecovery != nil {
				d.onRecovery(name, now)
			}
		}
	}
}
