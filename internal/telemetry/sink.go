package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink receives every event emitted through a Telemetry hub, in emission
// order. Implementations must tolerate being called from any simulated
// process (the kernel guarantees one runs at a time, but the race detector
// still sees distinct goroutines, so sinks lock).
type Sink interface {
	Emit(Event)
	Close() error
}

// Buffer is an in-memory sink retaining every event, the source for the
// Chrome exporter and for test assertions.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer creates an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit implements Sink.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Close implements Sink (a no-op).
func (b *Buffer) Close() error { return nil }

// Events returns a copy of the retained events in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// JSONL streams events as one JSON object per line. The encoding is fully
// deterministic: struct field order, ordered Args, and Go's shortest-float
// formatting, so two identical seeded runs produce byte-identical output.
//
// Events are encoded by the hand-rolled appendEvent (see encode.go) into a
// reusable batch buffer that is written out once it exceeds jsonlFlushBytes
// and on Close — no per-event allocation or syscall. NewJSONLReference keeps
// the original per-event json.Marshal pipeline as the correctness oracle and
// performance baseline; both produce byte-identical streams.
type JSONL struct {
	mu        sync.Mutex
	w         io.Writer
	buf       []byte
	c         io.Closer // closed on Close when the target is a closer
	reference bool      // encode via json.Marshal instead of appendEvent
}

// jsonlFlushBytes is the batch-buffer size that triggers a write to the
// underlying writer. Large enough to amortize syscalls over hundreds of
// events, small enough to stay cache-resident.
const jsonlFlushBytes = 64 << 10

// NewJSONL creates a JSONL sink over w. If w is an io.Closer it is closed
// by Close after flushing.
func NewJSONL(w io.Writer) *JSONL {
	s := &JSONL{w: w, buf: make([]byte, 0, jsonlFlushBytes+1024)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// NewJSONLReference creates a JSONL sink that encodes every event with
// json.Marshal, the pipeline the batched encoder replaced. Its output is
// byte-identical to NewJSONL's; it exists as the differential-testing oracle
// (encode_test.go, determinism_test.go) and as the baseline the kernel and
// end-to-end benchmarks measure the batched encoder against.
func NewJSONLReference(w io.Writer) *JSONL {
	s := NewJSONL(w)
	s.reference = true
	return s
}

// Emit implements Sink. Unserializable events (NaN/Inf floats, unsupported
// argument types) are dropped rather than corrupting the stream.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock() // explicit unlocks: no defer on the per-event hot path
	if s.reference {
		ev := e // copy so taking its address does not force e to the heap on the fast path
		b, err := json.Marshal(&ev)
		if err != nil {
			s.mu.Unlock()
			return
		}
		s.buf = append(s.buf, b...)
	} else {
		b, ok := appendEvent(s.buf, &e)
		if !ok {
			s.mu.Unlock()
			return
		}
		s.buf = b
	}
	s.buf = append(s.buf, '\n')
	if len(s.buf) >= jsonlFlushBytes {
		s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
	s.mu.Unlock()
}

// Close flushes the batch buffer and closes the underlying writer if it is
// a closer.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if len(s.buf) > 0 {
		_, err = s.w.Write(s.buf)
		s.buf = s.buf[:0]
	}
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
