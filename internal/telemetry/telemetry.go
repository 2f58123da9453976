// Package telemetry is the zero-dependency observability layer of the Grid
// emulator: deterministic counters, gauges and histograms registered per
// component, plus a structured trace of typed events keyed to virtual time.
//
// Design constraints, in order:
//
//  1. Determinism. Two runs of the same seeded simulation must produce
//     byte-identical exports. Nothing here reads wall-clock time or
//     iterates a map without sorting; event timestamps come from the
//     simulation clock installed with SetClock.
//
//  2. Near-zero cost when disabled. Every handle type (Counter, Gauge,
//     Histogram) and Telemetry itself are nil-safe: instrumented code may
//     call through nil pointers and pays a single predictable branch
//     (~1 ns). Hot paths guard event construction with a nil check so
//     argument slices are never built when tracing is off.
//
//  3. No dependencies beyond the standard library, and no dependency on
//     simcore — the kernel imports telemetry, not the reverse.
//
// A Telemetry hub fans events out to Sinks (an in-memory Buffer, a JSONL
// stream, or both); Chrome trace_event JSON for chrome://tracing / Perfetto
// is produced from a Buffer with WriteChromeTrace.
package telemetry

import (
	"sync"
)

// Telemetry is the per-simulation observability hub. Create one with New,
// install the virtual clock with SetClock (simcore.Sim.SetTelemetry does
// this), attach sinks, and hand it to the components being measured. A nil
// *Telemetry is valid and disables everything.
type Telemetry struct {
	mu    sync.Mutex
	clock func() float64
	seq   uint64
	sinks []Sink

	comps map[string]*component
	order []string
}

// component groups one named component's metrics in registration order.
type component struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cOrder   []string
	gOrder   []string
	hOrder   []string
}

// New creates an empty hub with no clock and no sinks.
func New() *Telemetry {
	return &Telemetry{comps: make(map[string]*component)}
}

// SetClock installs the virtual-time source used to stamp events.
func (t *Telemetry) SetClock(fn func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// AddSink attaches a sink; every subsequent event is delivered to it.
func (t *Telemetry) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Emit stamps the event with the current virtual time and a sequence number
// and delivers it to every sink. Callers on hot paths should guard with a
// nil check before building the event's argument slice.
func (t *Telemetry) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.clock != nil {
		e.T = t.clock()
	}
	t.seq++
	e.Seq = t.seq
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}

// Close closes every attached sink.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	sinks := t.sinks
	t.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// comp returns (creating if needed) the named component. Caller holds t.mu.
func (t *Telemetry) comp(name string) *component {
	c, ok := t.comps[name]
	if !ok {
		c = &component{
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
		}
		t.comps[name] = c
		t.order = append(t.order, name)
	}
	return c
}

// Counter returns the named counter for a component, registering it on
// first use. On a nil hub it returns nil, which is itself a valid no-op
// counter — the disabled fast path.
func (t *Telemetry) Counter(comp, name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.comp(comp)
	m, ok := c.counters[name]
	if !ok {
		m = &Counter{}
		c.counters[name] = m
		c.cOrder = append(c.cOrder, name)
	}
	return m
}

// Gauge returns the named gauge, registering it on first use (nil on a nil
// hub).
func (t *Telemetry) Gauge(comp, name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.comp(comp)
	m, ok := c.gauges[name]
	if !ok {
		m = &Gauge{}
		c.gauges[name] = m
		c.gOrder = append(c.gOrder, name)
	}
	return m
}

// Histogram returns the named histogram, registering it on first use (nil
// on a nil hub).
func (t *Telemetry) Histogram(comp, name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.comp(comp)
	m, ok := c.hists[name]
	if !ok {
		m = &Histogram{}
		c.hists[name] = m
		c.hOrder = append(c.hOrder, name)
	}
	return m
}
