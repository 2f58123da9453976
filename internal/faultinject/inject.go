package faultinject

import (
	"fmt"
	"sort"
	"strings"

	"grads/internal/simcore"
	"grads/internal/telemetry"
	"grads/internal/topology"
)

// Injector executes a fault schedule against a running simulation. It is
// itself a simulated process: injections and recoveries happen at exact
// virtual times, interleaved deterministically with the workload, so the
// same seed always produces the same fault timeline and the same trace.
type Injector struct {
	sim  *simcore.Sim
	grid *topology.Grid

	services map[string]*Health
	storage  Corruptor
	actions  []action

	// stormVictims remembers, per windowed storm event, exactly which live
	// nodes its injection crashed, so recovery revives that set and no
	// other (a node that crashed independently mid-storm stays down).
	stormVictims map[Event][]string

	proc    *simcore.Proc
	stopped bool

	injected  int
	recovered int
	skipped   int
}

// action is one timeline step: the injection or recovery of one Event.
type action struct {
	at      float64
	recover bool
	ev      Event
}

// NewInjector creates an injector over the grid with no schedule loaded.
func NewInjector(sim *simcore.Sim, grid *topology.Grid) *Injector {
	return &Injector{
		sim: sim, grid: grid,
		services:     make(map[string]*Health),
		stormVictims: make(map[Event][]string),
	}
}

// Corruptor is the storage surface ckptcorrupt events drive: marking every
// resident blob on a node's depot corrupt, and opening/closing a window in
// which new writes land torn. *ibp.System implements it; the interface
// keeps this package free of an import cycle with ibp.
type Corruptor interface {
	CorruptAll(node string) int
	SetCorrupting(node string, on bool) bool
}

// RegisterStorage attaches the depot system ckptcorrupt events target.
// Without it, ckptcorrupt actions are skipped and counted in Skipped.
func (in *Injector) RegisterStorage(c Corruptor) { in.storage = c }

// RegisterService attaches a service Health under the name fault specs use
// (gis, nws, binder, ibp). Outage and lag events whose target has no
// registered Health are skipped and counted in Skipped.
func (in *Injector) RegisterService(name string, h *Health) {
	if h != nil {
		in.services[name] = h
	}
}

// Load appends a schedule of events to the injector's timeline. It must be
// called before Start.
func (in *Injector) Load(events []Event) {
	for _, e := range events {
		in.actions = append(in.actions, action{at: e.Start, ev: e})
		if e.End > e.Start {
			in.actions = append(in.actions, action{at: e.End, recover: true, ev: e})
		}
	}
	// Total order: time, then injections before recoveries, then kind and
	// target — the timeline replays identically run after run.
	sort.SliceStable(in.actions, func(i, j int) bool {
		a, b := in.actions[i], in.actions[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.recover != b.recover {
			return !a.recover
		}
		if a.ev.Kind != b.ev.Kind {
			return a.ev.Kind < b.ev.Kind
		}
		return a.ev.Target < b.ev.Target
	})
}

// Start spawns the injector process, which sleeps between scheduled actions
// and applies each at its exact virtual time.
func (in *Injector) Start() {
	in.proc = in.sim.Spawn("faultinject", func(p *simcore.Proc) {
		for _, a := range in.actions {
			if in.stopped {
				return
			}
			if err := p.SleepUntil(a.at); err != nil {
				return
			}
			in.apply(a)
		}
	})
}

// Stop terminates the injector process; faults already injected stay in
// force.
func (in *Injector) Stop() {
	in.stopped = true
	if in.proc != nil {
		in.proc.Kill()
	}
}

// Injected and Recovered return how many fault injections and recoveries
// have executed; Skipped counts actions whose target did not resolve.
func (in *Injector) Injected() int  { return in.injected }
func (in *Injector) Recovered() int { return in.recovered }
func (in *Injector) Skipped() int   { return in.skipped }

// apply executes one timeline action.
func (in *Injector) apply(a action) {
	ok := false
	switch a.ev.Kind {
	case KindCrash:
		ok = in.grid.SetNodeDown(a.ev.Target, !a.recover)
	case KindSlow:
		if n := in.grid.Node(a.ev.Target); n != nil {
			delta := a.ev.Value
			if a.recover {
				delta = -delta
			}
			n.CPU.SetExternalLoad(n.CPU.ExternalLoad() + delta)
			ok = true
		}
	case KindLinkDown:
		if l := in.grid.Net.Link(a.ev.Target); l != nil {
			in.grid.Net.SetLinkDown(l, !a.recover)
			ok = true
		}
	case KindLinkSlow:
		if l := in.grid.Net.Link(a.ev.Target); l != nil {
			factor := a.ev.Value
			if a.recover {
				factor = 1
			}
			in.grid.Net.SetCapacityFactor(l, factor)
			ok = true
		}
	case KindOutage:
		if h := in.services[a.ev.Target]; h != nil {
			h.SetDown(!a.recover)
			ok = true
		}
	case KindLag:
		if h := in.services[a.ev.Target]; h != nil {
			if a.recover {
				h.SetExtraLatency(0)
			} else {
				h.SetExtraLatency(a.ev.Value)
			}
			ok = true
		}
	case KindCkptCorrupt:
		if in.storage != nil && in.grid.Node(a.ev.Target) != nil {
			if a.recover {
				ok = in.storage.SetCorrupting(a.ev.Target, false)
			} else if in.storage.CorruptAll(a.ev.Target) >= 0 {
				in.storage.SetCorrupting(a.ev.Target, true)
				ok = true
			}
		}
	case KindStorm:
		if a.recover {
			for _, name := range in.stormVictims[a.ev] {
				in.grid.SetNodeDown(name, false)
			}
			delete(in.stormVictims, a.ev)
			ok = true
		} else if victims := in.stormPick(a.ev.Target, int(a.ev.Value)); len(victims) > 0 {
			for _, name := range victims {
				in.grid.SetNodeDown(name, true)
			}
			if a.ev.End > a.ev.Start {
				in.stormVictims[a.ev] = victims
			}
			ok = true
		}
	}
	if !ok {
		in.skipped++
		return
	}
	typ := telemetry.EvFaultInject
	if a.recover {
		typ = telemetry.EvFaultRecover
		in.recovered++
	} else {
		in.injected++
	}
	if tel := in.sim.Telemetry(); tel != nil {
		tel.Counter("faultinject", counterName(a.recover)).Inc()
		tel.Emit(telemetry.Event{
			Type: typ, Comp: "faultinject", Name: string(a.ev.Kind),
			Args: []telemetry.Arg{
				telemetry.S("target", a.ev.Target),
				telemetry.F("value", a.ev.Value),
			},
		})
	}
}

// stormPick selects the first count live nodes whose names match the storm
// prefix ("*" matches everything), in sorted name order so the victim set
// is the same run after run.
func (in *Injector) stormPick(prefix string, count int) []string {
	if count <= 0 {
		return nil
	}
	var names []string
	for _, n := range in.grid.Nodes() {
		if n.Down() {
			continue
		}
		if prefix == "*" || strings.HasPrefix(n.Name(), prefix) {
			names = append(names, n.Name())
		}
	}
	sort.Strings(names)
	if len(names) > count {
		names = names[:count]
	}
	return names
}

func verb(rec bool) string {
	if rec {
		return "recover"
	}
	return "inject"
}

func counterName(rec bool) string {
	if rec {
		return "recoveries"
	}
	return "injections"
}

// HealthSetter is implemented by every grid service that can be taken down
// by the injector.
type HealthSetter interface{ SetHealth(*Health) }

// Wire creates a Health per named service, installs it on the service, and
// registers it with the injector under the spec-grammar name (gis, nws,
// binder, ibp). Nil services are skipped. A storage service that also
// implements Corruptor (ibp.System does) is registered as the ckptcorrupt
// target. It returns the injector for chaining.
func Wire(in *Injector, gis, nws, binder, ibp HealthSetter) *Injector {
	wire := func(name string, svc HealthSetter) {
		if svc == nil {
			return
		}
		h := NewHealth(in.sim, name)
		svc.SetHealth(h)
		in.RegisterService(name, h)
	}
	wire("gis", gis)
	wire("nws", nws)
	wire("binder", binder)
	wire("ibp", ibp)
	if c, ok := ibp.(Corruptor); ok {
		in.RegisterStorage(c)
	}
	return in
}

// Describe renders the loaded timeline for reports (one line per action).
func (in *Injector) Describe() string {
	out := ""
	for _, a := range in.actions {
		out += fmt.Sprintf("t=%-8.1f %-8s %-9s %s\n", a.at, verb(a.recover), a.ev.Kind, a.ev.Target)
	}
	return out
}
