package simcore

import (
	"container/heap"
	"io"
	"math"
	"testing"

	"grads/internal/telemetry"
)

// The pre-arena event queue, kept verbatim as the benchmark baseline: a
// binary min-heap via container/heap over individually allocated events.
// BenchmarkKernelEventThroughputLegacy drives it through the same
// schedule→fire churn as BenchmarkKernelEventThroughput drives the 4-ary
// arena queue, and cmd/benchguard gates the speedup between the two
// (BENCH_kernel.json).

type legacyEvent struct {
	t        float64
	seq      int64
	fn       func()
	canceled bool
	index    int
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }

func (h legacyHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *legacyHeap) Push(x any) {
	e := x.(*legacyEvent)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (h *legacyHeap) popNext() *legacyEvent {
	for h.Len() > 0 {
		e := heap.Pop(h).(*legacyEvent)
		if !e.canceled {
			return e
		}
	}
	return nil
}

// legacySim replicates the pre-change kernel's schedule→fire path: allocate
// an event, push it through container/heap, pop and fire.
type legacySim struct {
	now    float64
	seq    int64
	events legacyHeap
}

func (s *legacySim) schedule(delay float64, fn func()) *legacyEvent {
	t := s.now + delay
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := &legacyEvent{t: t, seq: s.seq, fn: fn}
	heap.Push(&s.events, e)
	return e
}

func (s *legacySim) run() {
	for {
		e := s.events.popNext()
		if e == nil {
			return
		}
		s.now = e.t
		e.fn()
	}
}

// kernelChurn is the shared workload shape: a rolling window of ~1024
// pending events with wrapping timestamps, drained in bursts — the access
// pattern of a large simulation in steady state.
const churnWindow = 1024

func BenchmarkKernelEventThroughput(b *testing.B) {
	sim := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(float64(i%1000), fn)
		if i%churnWindow == churnWindow-1 {
			sim.Run()
		}
	}
	sim.Run()
}

func BenchmarkKernelEventThroughputLegacy(b *testing.B) {
	sim := &legacySim{}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.schedule(float64(i%1000), fn)
		if i%churnWindow == churnWindow-1 {
			sim.run()
		}
	}
	sim.run()
}

// BenchmarkKernelEventThroughputTelemetry is the same churn with a
// telemetry hub attached (kernel counters live, no sinks): the enabled-path
// cost over the nil-guard fast path. It must stay 0 allocs/op too.
func BenchmarkKernelEventThroughputTelemetry(b *testing.B) {
	sim := New(1)
	sim.SetTelemetry(telemetry.New())
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(float64(i%1000), fn)
		if i%churnWindow == churnWindow-1 {
			sim.Run()
		}
	}
	sim.Run()
}

// BenchmarkKernelCancelReschedule measures the cancel-heavy pattern of the
// CPU and network models (every state change cancels and reschedules a
// completion event); lazy cancellation must keep this allocation-free.
func BenchmarkKernelCancelReschedule(b *testing.B) {
	sim := New(1)
	fn := func() {}
	// Keep a standing population so cancels land mid-heap.
	for i := 0; i < churnWindow; i++ {
		sim.Schedule(float64(i%97)+1e6, fn)
	}
	var pending Event
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending.Cancel()
		pending = sim.Schedule(float64(i%97), fn)
		if i%churnWindow == churnWindow-1 {
			sim.RunUntil(sim.Now() + 50)
		}
	}
	b.StopTimer()
	sim.Run()
}

// The two-channel process protocol the handoff replaced, kept verbatim as
// the baseline of the process benchmarks: the kernel goroutine runs the
// event loop, and every process wakeup is a kernel→process switch on resume
// plus a process→kernel switch on parked. It runs over the arena queue, so
// each Kernel*Proc pair differs only in the protocol; cmd/benchguard gates
// the speedups (BENCH_kernel.json).

type legacyProcSim struct {
	now float64
	seq int64
	q   eventQueue
}

type legacyProc struct {
	sim    *legacyProcSim
	resume chan error
	parked chan struct{}
	dead   bool
	wake   func()
}

func (s *legacyProcSim) at(t float64, fn func()) {
	s.seq++
	idx := s.q.alloc(t, s.seq, fn, nil)
	s.q.push(heapEntry{tb: math.Float64bits(t), ord: uint64(s.seq)<<ordIdxBits | uint64(idx)})
	s.q.live++
}

func (s *legacyProcSim) run() {
	for {
		idx := s.q.peekLive()
		if idx < 0 {
			return
		}
		s.q.deleteMin()
		sl := &s.q.slots[idx]
		t, fn := sl.t, sl.fn
		s.q.live--
		s.q.recycle(idx)
		s.now = t
		fn()
	}
}

func (s *legacyProcSim) spawnAt(t float64, body func(p *legacyProc)) {
	p := &legacyProc{sim: s, resume: make(chan error), parked: make(chan struct{})}
	p.wake = func() { p.run(nil) }
	go func() {
		if err := <-p.resume; err == nil {
			body(p)
		}
		p.dead = true
		p.parked <- struct{}{}
	}()
	s.at(t, p.wake)
}

func (p *legacyProc) run(cause error) {
	if p.dead {
		return
	}
	p.resume <- cause
	<-p.parked
}

func (p *legacyProc) park() error {
	p.parked <- struct{}{}
	return <-p.resume
}

func (p *legacyProc) sleep(d float64) error {
	p.sim.at(p.sim.now+d, p.wake)
	return p.park()
}

// BenchmarkKernelProcSelfResume measures a lone sleeper: each wakeup
// resumes the process that just parked, which the handoff does with no
// goroutine switch.
func BenchmarkKernelProcSelfResume(b *testing.B) {
	sim := New(1)
	iters := b.N
	sim.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
}

func BenchmarkKernelProcSelfResumeLegacy(b *testing.B) {
	sim := &legacyProcSim{}
	iters := b.N
	sim.spawnAt(0, func(p *legacyProc) {
		for i := 0; i < iters; i++ {
			p.sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sim.run()
}

// BenchmarkKernelProcHandoff measures two sleepers at offset times: each
// wakeup resumes the other process, one goroutine switch with the handoff
// and two through the kernel goroutine. One op is one wakeup.
func BenchmarkKernelProcHandoff(b *testing.B) {
	sim := New(1)
	for i, iters := range []int{(b.N + 1) / 2, b.N / 2} {
		sim.SpawnAt(float64(i)/2, "sleeper", func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run()
}

func BenchmarkKernelProcHandoffLegacy(b *testing.B) {
	sim := &legacyProcSim{}
	for i, iters := range []int{(b.N + 1) / 2, b.N / 2} {
		sim.spawnAt(float64(i)/2, func(p *legacyProc) {
			for j := 0; j < iters; j++ {
				p.sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.run()
}

// The traced pair measures instrumented kernel throughput — the tentpole
// end to end. Each fired event records a task-start and a task-completion
// telemetry record, the instrumentation pattern of the CPU and network
// models. The new side runs the arena kernel with the batched append-style
// JSONL encoder; the legacy side runs the container/heap kernel with the
// per-event json.Marshal encoder it replaced (NewJSONLReference).
// cmd/benchguard gates the speedup at 5x and holds the new side to
// 0 allocs/op (BENCH_kernel.json).

func BenchmarkKernelEventThroughputTraced(b *testing.B) {
	sim := New(1)
	sink := telemetry.NewJSONL(io.Discard)
	args := []telemetry.Arg{telemetry.I("node", 3)}
	var seq uint64
	fn := func() {
		seq++
		sink.Emit(telemetry.Event{T: sim.Now(), Seq: seq, Type: "task.start",
			Comp: "cpusim", Name: "worker", Args: args})
		sink.Emit(telemetry.Event{T: sim.Now(), Seq: seq, Type: "task.done",
			Comp: "cpusim", Name: "worker", Dur: 2.5, Args: args})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(float64(i%1000), fn)
		if i%churnWindow == churnWindow-1 {
			sim.Run()
		}
	}
	sim.Run()
	sink.Close()
}

func BenchmarkKernelEventThroughputTracedLegacy(b *testing.B) {
	sim := &legacySim{}
	sink := telemetry.NewJSONLReference(io.Discard)
	args := []telemetry.Arg{telemetry.I("node", 3)}
	var seq uint64
	fn := func() {
		seq++
		sink.Emit(telemetry.Event{T: sim.now, Seq: seq, Type: "task.start",
			Comp: "cpusim", Name: "worker", Args: args})
		sink.Emit(telemetry.Event{T: sim.now, Seq: seq, Type: "task.done",
			Comp: "cpusim", Name: "worker", Dur: 2.5, Args: args})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.schedule(float64(i%1000), fn)
		if i%churnWindow == churnWindow-1 {
			sim.run()
		}
	}
	sim.run()
	sink.Close()
}
