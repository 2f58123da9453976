package autopilot

import (
	"errors"
	"testing"

	"grads/internal/simcore"
)

func TestActuatorRegistry(t *testing.T) {
	sim := simcore.New(1)
	r := NewActuatorRegistry(sim)
	applied := 0.0
	r.Register(&Actuator{Name: "tune", Apply: func(arg float64) error { applied = arg; return nil }})
	r.Register(&Actuator{Name: "broken", Apply: func(float64) error { return errors.New("nope") }})

	if err := r.Invoke("tune", 0.7); err != nil || applied != 0.7 {
		t.Fatalf("Invoke tune: %v, applied %v", err, applied)
	}
	if err := r.Invoke("broken", 1); err == nil {
		t.Fatal("broken actuator reported success")
	}
	if err := r.Invoke("missing", 1); err == nil {
		t.Fatal("missing actuator reported success")
	}
	log := r.Log()
	if len(log) != 3 {
		t.Fatalf("log has %d entries", len(log))
	}
	if log[0].Err != nil || log[1].Err == nil || log[2].Err == nil {
		t.Fatalf("log errors wrong: %+v", log)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "broken" || names[1] != "tune" {
		t.Fatalf("Names = %v", names)
	}
}

func TestRegisterInvalidActuatorPanics(t *testing.T) {
	r := NewActuatorRegistry(simcore.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("nil Apply accepted")
		}
	}()
	r.Register(&Actuator{Name: "x"})
}

func TestMonitorRoutesViolationsThroughActuators(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 10}
	m := NewMonitor(sim, h.contract(), 5)
	reg := NewActuatorRegistry(sim)
	var severity float64
	reg.Register(&Actuator{Name: RescheduleActuator, Apply: func(arg float64) error {
		severity = arg
		h.actual = 10 // the corrective action restores performance
		return nil
	}})
	m.UseActuators(reg)
	m.Start()
	sim.Schedule(50, func() { h.actual = 30 })
	sim.RunUntil(300)
	m.Stop()
	if severity <= 0 {
		t.Fatal("reschedule actuator never invoked")
	}
	found := false
	for _, a := range reg.Log() {
		if a.Name == RescheduleActuator && a.Err == nil {
			found = true
		}
	}
	if !found {
		t.Fatal("actuation not logged")
	}
	if m.violations != 1 {
		t.Fatalf("violations = %d, want 1 (actuator acted)", m.violations)
	}
}

func TestMonitorActuatorFailureWidensLimits(t *testing.T) {
	sim := simcore.New(1)
	h := &contractHarness{predicted: 10, actual: 25}
	m := NewMonitor(sim, h.contract(), 5)
	reg := NewActuatorRegistry(sim)
	reg.Register(&Actuator{Name: RescheduleActuator, Apply: func(float64) error {
		return errors.New("no better resources")
	}})
	m.UseActuators(reg)
	m.Start()
	sim.RunUntil(400)
	m.Stop()
	widened := m.adjustUps
	if widened == 0 {
		t.Fatal("failed actuation should widen the limits (rescheduler declined)")
	}
}
