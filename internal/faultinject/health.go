// Package faultinject is the deterministic chaos layer of the Grid
// emulator: a seeded, virtual-time fault scheduler (Injector) that executes
// a schedule of fault events — node crashes and recoveries, link
// degradation and partition, CPU slowdowns, and grid-service outages and
// latency spikes — against a running simulation, plus the Health handle the
// grid services (GIS, NWS, binder, IBP) consult to model their own
// availability.
//
// Every injection and recovery is emitted as a telemetry event, so a chaos
// run's fault timeline, detector firings and recoveries are all visible in
// the same trace, and two runs with the same seed produce byte-identical
// streams.
package faultinject

import (
	"errors"
	"fmt"

	"grads/internal/simcore"
)

// ErrUnavailable is the error grid services return while their Health is
// down. It is the retryable class: the resilience layer's retry policy
// backs off and re-attempts calls failing with it, while other errors
// (missing software, unknown nodes) propagate immediately.
var ErrUnavailable = errors.New("faultinject: service unavailable")

// Retryable reports whether an error is a transient service failure worth
// retrying (an outage), as opposed to a permanent one.
func Retryable(err error) bool { return errors.Is(err, ErrUnavailable) }

// Health models the availability of one grid service. Services hold a
// Health and consult it at every call boundary; the Injector flips the same
// handle to take the service down, bring it back, or add per-call latency.
// A nil *Health is always healthy and free, so services without a chaos
// layer attached pay a single branch.
type Health struct {
	sim  *simcore.Sim
	name string

	down     bool
	extraLat float64 // added per-call latency in seconds

	rejected int // calls failed while down
}

// NewHealth creates a healthy service handle named name (e.g. "gis").
func NewHealth(sim *simcore.Sim, name string) *Health {
	return &Health{sim: sim, name: name}
}

// Down reports whether the service is currently out.
func (h *Health) Down() bool { return h != nil && h.down }

// SetDown marks the service out or restored.
func (h *Health) SetDown(down bool) {
	if h == nil {
		return
	}
	h.down = down
}

// SetExtraLatency sets the per-call latency penalty (a service "latency
// spike"); negative values clamp to zero.
func (h *Health) SetExtraLatency(d float64) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.extraLat = d
}

// Check is the call-boundary gate: the calling process pays any injected
// latency penalty, then receives ErrUnavailable (wrapped with the service
// name) if the service is down. A nil Health passes for free.
func (h *Health) Check(p *simcore.Proc) error {
	if h == nil {
		return nil
	}
	if h.extraLat > 0 {
		if err := p.Sleep(h.extraLat); err != nil {
			return err
		}
	}
	if h.down {
		h.rejected++
		if tel := h.sim.Telemetry(); tel != nil {
			tel.Counter("faultinject", "calls_rejected").Inc()
		}
		return fmt.Errorf("%w: %s", ErrUnavailable, h.name)
	}
	return nil
}
