package metasched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"grads/internal/spec"
)

// StreamEntry is one parsed submission of the -jobs stream grammar: a job
// class, an arrival time, and its shape parameters. It carries everything a
// JobSpec needs except the COP constructor, which the consumer binds to its
// execution environment (see experiments.RunJobStream).
type StreamEntry struct {
	Kind   string  // "qr" or "farm"
	Submit float64 // virtual arrival time, seconds

	N     int // qr: matrix order
	Tasks int // farm: independent work units

	Width    int     // requested lease width
	MinWidth int     // smallest acceptable lease (0 = broker default of 1)
	Bid      float64 // willingness to pay per node-round
	Est      float64 // user runtime estimate, seconds (0 = none)
}

// String renders the entry in the stream grammar.
func (e StreamEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s:", e.Kind, spec.Fmt(e.Submit))
	switch e.Kind {
	case "qr":
		fmt.Fprintf(&b, "n=%d", e.N)
	case "farm":
		fmt.Fprintf(&b, "tasks=%d", e.Tasks)
	}
	fmt.Fprintf(&b, ",w=%d", e.Width)
	if e.MinWidth > 0 {
		fmt.Fprintf(&b, ",min=%d", e.MinWidth)
	}
	if e.Bid > 0 {
		fmt.Fprintf(&b, ",bid=%s", spec.Fmt(e.Bid))
	}
	if e.Est > 0 {
		fmt.Fprintf(&b, ",est=%s", spec.Fmt(e.Est))
	}
	return b.String()
}

// FormatStream renders a submission stream in the grammar ParseStream
// accepts (its exact inverse), so generated streams can be reported and
// replayed.
func FormatStream(entries []StreamEntry) string { return spec.Join(entries) }

// ParseStream parses the -jobs submission grammar (lexed by package spec):
//
//	stream := entry (';' entry)*
//	entry  := kind '@' submit ':' param (',' param)*
//	param  := key '=' value
//
// where kind is qr (a tightly coupled ScaLAPACK QR factorization) or farm
// (a loosely coupled task farm), and submit is the virtual arrival time in
// seconds. Parameters:
//
//	n=N       qr only, required: matrix order (rows = cols)
//	tasks=T   farm only, required: independent work units
//	w=W       required: requested lease width in nodes
//	min=M     smallest acceptable lease, 1 <= M <= W (default 1)
//	bid=B     willingness to pay per node-round (default 1)
//	est=S     user runtime estimate in seconds, backfill only (default:
//	          derived from the job shape)
//
// Example:
//
//	qr@0:n=3000,w=8,min=4,bid=40;farm@25:tasks=24,w=4,bid=3
//
// Entries may arrive in any order; the parsed stream is sorted by submit
// time (then kind, then shape) so execution is deterministic.
func ParseStream(stream string) ([]StreamEntry, error) {
	var entries []StreamEntry
	for _, part := range spec.Entries(stream) {
		if part == "" {
			continue
		}
		e, err := parseStreamEntry(part)
		if err != nil {
			return nil, fmt.Errorf("metasched: bad job %q: %w", part, err)
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("metasched: empty job stream")
	}
	sortStream(entries)
	return entries, nil
}

func parseStreamEntry(s string) (StreamEntry, error) {
	kind, submit, rest, err := spec.Head(s)
	if err != nil {
		return StreamEntry{}, err
	}
	if kind != "qr" && kind != "farm" {
		return StreamEntry{}, fmt.Errorf("unknown job kind %q (want qr or farm)", kind)
	}
	e := StreamEntry{Kind: kind}
	if e.Submit, err = spec.Float(submit); err != nil || e.Submit < 0 {
		return StreamEntry{}, fmt.Errorf("bad submit time %q", submit)
	}
	params, err := spec.Params(rest)
	if err != nil {
		return StreamEntry{}, err
	}
	ints := map[string]*int{"n": &e.N, "tasks": &e.Tasks, "w": &e.Width, "min": &e.MinWidth}
	floats := map[string]*float64{"bid": &e.Bid, "est": &e.Est}
	for _, p := range params {
		if iv := ints[p.Key]; iv != nil {
			if *iv, err = strconv.Atoi(p.Val); err != nil || *iv <= 0 {
				return StreamEntry{}, fmt.Errorf("%s=%q is not a positive integer", p.Key, p.Val)
			}
		} else if fv := floats[p.Key]; fv != nil {
			if *fv, err = spec.Float(p.Val); err != nil || *fv <= 0 {
				return StreamEntry{}, fmt.Errorf("%s=%q is not a positive finite number", p.Key, p.Val)
			}
		} else {
			return StreamEntry{}, fmt.Errorf("unknown parameter %q", p.Key)
		}
	}
	if kind != "qr" && e.N != 0 {
		return StreamEntry{}, fmt.Errorf("n= only applies to qr jobs")
	}
	if kind != "farm" && e.Tasks != 0 {
		return StreamEntry{}, fmt.Errorf("tasks= only applies to farm jobs")
	}
	if kind == "qr" && e.N == 0 {
		return StreamEntry{}, fmt.Errorf("qr job needs n=")
	}
	if kind == "farm" && e.Tasks == 0 {
		return StreamEntry{}, fmt.Errorf("farm job needs tasks=")
	}
	if e.Width == 0 {
		return StreamEntry{}, fmt.Errorf("job needs w=")
	}
	if e.MinWidth > e.Width {
		return StreamEntry{}, fmt.Errorf("min=%d exceeds w=%d", e.MinWidth, e.Width)
	}
	return e, nil
}

// sortStream orders entries by submit time, then kind, then shape and
// width — a total order over distinct entries, so execution order never
// depends on how the stream string was assembled.
func sortStream(entries []StreamEntry) {
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Tasks != b.Tasks {
			return a.Tasks < b.Tasks
		}
		return a.Width < b.Width
	})
}
