package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"grads/internal/spec"
)

// Kind names one class of injectable fault.
type Kind string

// The fault kinds the injector executes.
const (
	// KindCrash takes a node down (and kills the flows and processes it
	// hosts); recovery brings it back into the GIS-visible pool.
	KindCrash Kind = "crash"
	// KindSlow squeezes a node's CPU by adding Value units of competing
	// external load; recovery removes them again.
	KindSlow Kind = "slow"
	// KindLinkDown partitions a link: active flows crossing it are killed
	// and new transfers fail until recovery.
	KindLinkDown Kind = "linkdown"
	// KindLinkSlow degrades a link to Value (0..1] of its capacity;
	// recovery restores full capacity.
	KindLinkSlow Kind = "linkslow"
	// KindOutage takes a grid service (gis, nws, binder, ibp) down; its
	// calls fail with ErrUnavailable until recovery.
	KindOutage Kind = "outage"
	// KindLag adds Value seconds of latency to every call of a grid
	// service; recovery removes the penalty.
	KindLag Kind = "lag"
	// KindCkptCorrupt rots every checkpoint blob resident on the target
	// node's IBP depot and tears (partially writes) new blobs landing there
	// until recovery — the storage-integrity fault the SRS checksum and
	// lineage-fallback machinery defends against.
	KindCkptCorrupt Kind = "ckptcorrupt"
	// KindStorm crashes a correlated burst of Value live nodes whose names
	// start with the target prefix ("*" matches every node); recovery
	// brings exactly that victim set back.
	KindStorm Kind = "storm"
)

// Event is one scheduled fault: injected at Start and, when End > Start,
// recovered at End. End = 0 (or <= Start) means the fault is permanent.
type Event struct {
	Kind   Kind
	Start  float64
	End    float64
	Target string  // node name, link name, or service name
	Value  float64 // kind-specific magnitude (load units, capacity factor, seconds)
}

// String renders the event in the -faults spec grammar.
func (e Event) String() string {
	s := string(e.Kind) + "@" + spec.Fmt(e.Start)
	if e.End > e.Start {
		s += "-" + spec.Fmt(e.End)
	}
	s += ":" + e.Target
	if kindHasValue(e.Kind) {
		s += ":" + spec.Fmt(e.Value)
	}
	return s
}

// kindHasValue reports whether the kind carries a magnitude argument.
func kindHasValue(k Kind) bool {
	switch k {
	case KindSlow, KindLinkSlow, KindLag, KindStorm:
		return true
	}
	return false
}

// FormatSpec renders a schedule in the spec grammar (the inverse of
// ParseSpec), so generated schedules can be reported and replayed.
func FormatSpec(events []Event) string { return spec.Join(events) }

// ParseSpec parses the -faults schedule grammar (lexed by package spec):
//
//	spec  := event (';' event)*
//	event := kind '@' start [ '-' end ] ':' target [ ':' value ]
//
// where kind is one of crash, slow, linkdown, linkslow, outage, lag,
// ckptcorrupt, storm; start and end are virtual-time seconds; target is a
// node name (crash, slow, ckptcorrupt), a node-name prefix or "*" (storm),
// a netsim link name such as "lan:UT" or "wan:UIUC|UT" (linkdown,
// linkslow), or a service name gis|nws|binder|ibp (outage, lag); and value
// is the kind's magnitude (slow: added load units, linkslow: capacity
// factor in (0,1], lag: seconds per call, storm: how many live matching
// nodes crash). Omitting "-end" makes the fault permanent.
//
// Examples:
//
//	crash@800:qr0                      qr0 fails at t=800 and stays down
//	crash@800-1600:qr2                 qr2 fails at 800, recovers at 1600
//	slow@100-400:qr1:4                 4 competing processes on qr1
//	linkslow@50-90:lan:UT:0.25         UT LAN at quarter capacity
//	linkdown@200-260:wan:UIUC|UT       WAN partition for 60 s
//	outage@10-40:nws                   NWS outage
//	lag@10-40:gis:0.5                  every GIS call pays +0.5 s
//	ckptcorrupt@300-500:qr1            qr1's depot rots and tears writes
//	storm@600-700:utk:3                3 utk* nodes crash together
func ParseSpec(s string) ([]Event, error) {
	var events []Event
	for _, part := range spec.Entries(s) {
		if part == "" {
			continue
		}
		e, err := parseEvent(part)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad event %q: %w", part, err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault spec")
	}
	sortEvents(events)
	return events, nil
}

func parseEvent(s string) (Event, error) {
	kind, times, target, err := spec.Head(s)
	if err != nil {
		return Event{}, err
	}
	e := Event{Kind: Kind(kind)}
	switch e.Kind {
	case KindCrash, KindSlow, KindLinkDown, KindLinkSlow, KindOutage, KindLag, KindCkptCorrupt, KindStorm:
	default:
		return Event{}, fmt.Errorf("unknown kind %q", kind)
	}
	if e.Start, e.End, err = spec.Window(times); err != nil {
		return Event{}, err
	}
	if kindHasValue(e.Kind) {
		last := strings.LastIndex(target, ":")
		if last < 0 {
			return Event{}, fmt.Errorf("%s needs a ':value' suffix", kind)
		}
		if e.Value, err = spec.Float(target[last+1:]); err != nil {
			return Event{}, fmt.Errorf("bad value %q", strings.TrimSpace(target[last+1:]))
		}
		target = target[:last]
		switch {
		case e.Kind == KindLinkSlow && (e.Value <= 0 || e.Value > 1):
			return Event{}, fmt.Errorf("linkslow factor %g outside (0,1]", e.Value)
		case e.Kind == KindStorm && e.Value < 1:
			return Event{}, fmt.Errorf("storm count %g below 1", e.Value)
		case e.Kind != KindLinkSlow && e.Value <= 0:
			return Event{}, fmt.Errorf("value %g must be positive", e.Value)
		}
	}
	if e.Target = strings.TrimSpace(target); e.Target == "" {
		return Event{}, fmt.Errorf("empty target")
	}
	return e, nil
}

// sortEvents orders a schedule by start time, then kind, then target —
// a total order, so schedule execution is deterministic regardless of how
// the events were produced.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
}

// GenerateNodeFaults builds a seeded crash/recover schedule over the named
// nodes on [0, horizon): each node fails with exponentially distributed
// time-between-failures of mean mtbf and stays down for an exponentially
// distributed repair time of mean mttr (a non-positive mttr makes every
// crash permanent). The schedule is fully determined by rng's state, and at
// least one node is always left untouched so recovery has somewhere to run.
func GenerateNodeFaults(rng *rand.Rand, nodes []string, mtbf, mttr, horizon float64) []Event {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if mtbf <= 0 || horizon <= 0 || len(nodes) == 0 {
		return nil
	}
	spared := len(nodes) - 1 // index of the survivor node
	var events []Event
	for i, node := range nodes {
		if i == spared {
			continue
		}
		t := rng.ExpFloat64() * mtbf
		for t < horizon {
			e := Event{Kind: KindCrash, Start: t, Target: node}
			if mttr > 0 {
				e.End = t + math.Max(1, rng.ExpFloat64()*mttr)
				t = e.End + rng.ExpFloat64()*mtbf
			} else {
				t = horizon
			}
			events = append(events, e)
		}
	}
	sortEvents(events)
	return events
}
