package simcore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"grads/internal/telemetry"
)

// These tests pin the kernel's control transfer between the host goroutine
// (the caller of RunUntil, RunBefore and Step) and simulated processes: a
// dispatched process hands on to the next process itself, callbacks run on
// the host, and synchronous resumes return to their caller.

func TestStepFiresOneEventOfAChain(t *testing.T) {
	s := New(1)
	var ran []string
	s.Spawn("a", func(p *Proc) {
		ran = append(ran, "a")
		p.Sleep(1)
		ran = append(ran, "a-woke")
	})
	s.Spawn("b", func(p *Proc) { ran = append(ran, "b") })
	// a's start event resumes a; when a parks the next event starts b, which
	// the one-event budget must leave unfired.
	if !s.Step() {
		t.Fatal("Step found no event")
	}
	if s.EventsFired() != 1 || !slices.Equal(ran, []string{"a"}) {
		t.Fatalf("after one Step: fired %d, ran %v; want 1, [a]", s.EventsFired(), ran)
	}
	if !s.Step() || s.EventsFired() != 2 || !slices.Equal(ran, []string{"a", "b"}) {
		t.Fatalf("after two Steps: fired %d, ran %v; want 2, [a b]", s.EventsFired(), ran)
	}
	if !s.Step() || s.Now() != 1 || !slices.Equal(ran, []string{"a", "b", "a-woke"}) {
		t.Fatalf("after three Steps: now %v, ran %v", s.Now(), ran)
	}
	if s.Step() {
		t.Fatal("Step fired an event on an empty queue")
	}
}

// chainPair spawns two processes that sleep in lock-step with offset
// periods, so every wakeup is a process event whose successor is another
// process event, and returns the log of (name, time) wakeups.
func chainPair(s *Sim) *[]string {
	log := new([]string)
	for _, c := range []struct {
		name   string
		period float64
	}{{"a", 1}, {"b", 1.5}} {
		c := c
		s.Spawn(c.name, func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(c.period)
				*log = append(*log, fmt.Sprintf("%s@%g", c.name, p.Now()))
			}
		})
	}
	return log
}

func TestRunBeforeStopsAChain(t *testing.T) {
	s := New(1)
	log := chainPair(s)
	if now := s.RunBefore(3); now != 2 {
		t.Fatalf("RunBefore(3) = %v, want the last fired event's time 2", now)
	}
	if want := []string{"a@1", "b@1.5", "a@2"}; !slices.Equal(*log, want) {
		t.Fatalf("RunBefore(3) woke %v, want %v", *log, want)
	}
	s.Run()
	want := []string{"a@1", "b@1.5", "a@2", "b@3", "a@3", "a@4", "b@4.5", "b@6"}
	if !slices.Equal(*log, want) {
		t.Fatalf("resumed run woke %v, want %v", *log, want)
	}
}

func TestRunUntilStopsAChain(t *testing.T) {
	s := New(1)
	log := chainPair(s)
	if now := s.RunUntil(2.5); now != 2.5 {
		t.Fatalf("RunUntil(2.5) = %v, want the horizon", now)
	}
	if want := []string{"a@1", "b@1.5", "a@2"}; !slices.Equal(*log, want) {
		t.Fatalf("RunUntil(2.5) woke %v, want %v", *log, want)
	}
	// The horizon is inclusive: both wakeups at 3 fire, b's first because
	// it was scheduled first.
	if now := s.RunUntil(3); now != 3 {
		t.Fatalf("RunUntil(3) = %v, want 3", now)
	}
	if want := []string{"a@1", "b@1.5", "a@2", "b@3", "a@3"}; !slices.Equal(*log, want) {
		t.Fatalf("RunUntil(3) woke %v, want %v", *log, want)
	}
}

func TestExitHandsOnToNextProc(t *testing.T) {
	s := New(1)
	var log []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(1)
			log = append(log, fmt.Sprintf("%s@%g", name, p.Now()))
		})
	}
	s.Run()
	if want := []string{"a@1", "b@1", "c@1"}; !slices.Equal(log, want) {
		t.Fatalf("woke %v, want %v", log, want)
	}
	if live := s.LiveProcs(); len(live) != 0 {
		t.Fatalf("live processes after the run: %v", live)
	}
}

func TestKilledProcWakeupRetired(t *testing.T) {
	s := New(1)
	tel := telemetry.New()
	s.SetTelemetry(tel)
	sigP, sigR, sigQ := NewSignal(s), NewSignal(s), NewSignal(s)
	var log []string
	p := s.Spawn("p", func(p *Proc) {
		err := sigP.Wait(p)
		log = append(log, fmt.Sprintf("p:%v", err))
	})
	s.Spawn("r", func(p *Proc) {
		sigR.Wait(p)
		log = append(log, "r")
		p.Sleep(5)
		log = append(log, "r-done")
	})
	s.Spawn("q", func(p *Proc) {
		sigQ.Wait(p)
		log = append(log, "q")
	})
	s.Schedule(1, func() {
		// Queue r's, then p's, then q's wakeup at t=1, then kill p before
		// its wakeup fires. When r parks, p's wakeup must be retired without
		// resuming p, and q must still run.
		sigR.Fire()
		sigP.Fire()
		sigQ.Fire()
		p.Resume(ErrKilled)
	})
	s.Run()
	want := []string{"p:" + ErrKilled.Error(), "r", "q", "r-done"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	// Starts (3) + the kill + r, q and r's sleep wakeup: p's stale wakeup
	// fires as an event but resumes nothing.
	if got := tel.Counter("simcore", "proc_switches").Value(); got != 7 {
		t.Fatalf("proc_switches = %d, want 7", got)
	}
	if got := tel.Counter("simcore", "events_fired").Value(); got != 8 {
		t.Fatalf("events_fired = %d, want 8", got)
	}
}

func TestInterruptFromProcReturnsToInterrupter(t *testing.T) {
	s := New(1)
	cause := errors.New("poke")
	var log []string
	victim := s.Spawn("victim", func(p *Proc) {
		err := p.Sleep(100)
		log = append(log, fmt.Sprintf("victim woke@%g: %v", p.Now(), err))
		p.Sleep(1)
		log = append(log, fmt.Sprintf("victim done@%g", p.Now()))
	})
	s.Spawn("interrupter", func(p *Proc) {
		p.Sleep(5)
		log = append(log, "before")
		ok := victim.Interrupt(cause)
		log = append(log, fmt.Sprintf("after: %v", ok))
		p.Sleep(2)
		log = append(log, fmt.Sprintf("interrupter done@%g", p.Now()))
	})
	s.Run()
	want := []string{"before", "victim woke@5: poke", "after: true", "victim done@6", "interrupter done@7"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}

func TestCallbackResumesTwoProcsInOrder(t *testing.T) {
	s := New(1)
	var log []string
	var parked []*Proc
	for _, name := range []string{"a", "b"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			parked = append(parked, p)
			p.ParkWith(nil)
			log = append(log, name)
			p.Sleep(1)
			log = append(log, name+"-slept")
		})
	}
	s.Schedule(2, func() {
		log = append(log, "cb-start")
		for _, p := range parked {
			p.Resume(nil)
		}
		log = append(log, "cb-end")
	})
	s.Run()
	want := []string{"cb-start", "a", "b", "cb-end", "a-slept", "b-slept"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}

// soupTrace runs a seeded mix of every kernel primitive — Sleep, Yield,
// Signal, Chan, Interrupt between processes, and a completion callback that
// Resumes a batch of ParkWith processes, with kills from callbacks — and
// returns its JSONL trace, kernel process events included, ending in the
// kernel counters.
func soupTrace(seed int64) []byte {
	s := New(seed)
	tel := telemetry.New()
	var out bytes.Buffer
	sink := telemetry.NewJSONL(&out)
	tel.AddSink(sink)
	s.SetTelemetry(tel)
	rng := s.Rand()
	sig := NewSignal(s)
	ch := NewChan(s)
	errPoke := errors.New("poke")
	note := func(p *Proc, op string, err error) {
		tel.Emit(telemetry.Event{Type: "soup.op", Comp: "soup", Name: p.Name(),
			Args: []telemetry.Arg{telemetry.S("op", op), telemetry.S("err", fmt.Sprint(err))}})
	}

	var batch []*Proc // processes parked on the completion callback
	done := false
	const nprocs = 8
	procs := make([]*Proc, 0, nprocs)
	for i := 0; i < nprocs; i++ {
		procs = append(procs, s.SpawnAt(rng.Float64(), fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 30 && !done; step++ {
				var err error
				op := rng.Intn(7)
				switch op {
				case 0:
					err = p.Sleep(rng.Float64() * 2)
				case 1:
					err = p.Yield()
				case 2:
					err = sig.Wait(p)
				case 3:
					_, err = ch.Get(p)
				case 4:
					ch.Put(step)
					sig.Fire()
					err = p.Sleep(0.25)
				case 5:
					target := procs[rng.Intn(len(procs))]
					if target != p {
						note(p, fmt.Sprintf("interrupt %s: %v", target.Name(), target.Interrupt(errPoke)), nil)
					}
					err = p.Sleep(0.5)
				case 6:
					batch = append(batch, p)
					err = p.ParkWith(func() {
						batch = slices.DeleteFunc(batch, func(q *Proc) bool { return q == p })
					})
				}
				note(p, fmt.Sprint(op), err)
				if errors.Is(err, ErrKilled) {
					return
				}
			}
		}))
	}

	var tick func()
	tick = func() {
		if s.Now() >= 20 {
			done = true
			for _, p := range procs {
				p.Kill()
			}
			return
		}
		ready := batch
		batch = nil
		for _, p := range ready {
			p.Resume(nil)
		}
		switch rng.Intn(10) {
		case 0, 3:
			sig.Broadcast()
		case 1, 4:
			ch.Put(-1)
		case 2:
			procs[rng.Intn(len(procs))].Kill()
		}
		s.Schedule(0.5+rng.Float64(), tick)
	}
	s.Schedule(0.5, tick)
	s.Run()
	tel.Emit(telemetry.Event{Type: "soup.done", Comp: "soup", Name: "kernel", Args: []telemetry.Arg{
		telemetry.I("events_fired", int(tel.Counter("simcore", "events_fired").Value())),
		telemetry.I("proc_switches", int(tel.Counter("simcore", "proc_switches").Value())),
		telemetry.I("procs_spawned", int(tel.Counter("simcore", "procs_spawned").Value())),
		telemetry.I("live", len(s.LiveProcs())),
	}})
	sink.Close()
	return out.Bytes()
}

// The golden trace was recorded with the two-channel kernel, in which every
// resume went through the host goroutine; the handoff kernel must reproduce
// it byte for byte.
func TestProcessSoupMatchesGolden(t *testing.T) {
	got := soupTrace(24)
	if !bytes.Equal(got, soupTrace(24)) {
		t.Fatal("two runs of the same seed differ")
	}
	want, err := os.ReadFile("testdata/soup.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from the golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace has %d lines, golden %d", len(gl), len(wl))
	}
}
