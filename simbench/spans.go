package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// index of the enclosing span, or -1 at the top.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // host seconds since the recorder began
	End    float64 `json:"end_s"`
}

// spans records the benchmark's own calls into each layer, in memory. A nil
// *spans records nothing, which is how untraced reps run.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its ID.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: time.Since(s.t0).Seconds()})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	n := len(s.stack)
	if n == 0 || s.stack[n-1] != id {
		panic(fmt.Sprintf("simbench: span %d closed out of order", id))
	}
	s.stack = s.stack[:n-1]
	s.list[id].End = time.Since(s.t0).Seconds()
}

// total sums the durations of every span with the given name.
func (s *spans) total(name string) float64 {
	if s == nil {
		return 0
	}
	sum := 0.0
	for _, sp := range s.list {
		if sp.Name == name {
			sum += sp.End - sp.Start
		}
	}
	return sum
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
