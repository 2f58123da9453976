// Package frontdoor is the serving layer over the metascheduler fleet: a
// deterministic open-loop request generator (seeded Poisson/MMPP arrivals
// shaped by diurnal waves, flash crowds and ramps), a front-door load
// balancer that spreads requests across multiple metasched brokers under
// pluggable routing policies (round-robin, least-queue, weighted-random,
// UCB and epsilon-greedy bandits), and a per-class QoS engine that makes
// probabilistic local/offload/drop decisions against p95-latency targets,
// shedding load during brownouts through the resilience breakers and the
// failure detector. All randomness comes from explicit seeded sources, so
// a run's trace is byte-identical at a fixed seed.
package frontdoor

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"grads/internal/spec"
)

// MixEntry is one class's weight in a phase's request mix.
type MixEntry struct {
	Class  string
	Weight float64
}

// Phase is one parsed window of the -arrivals grammar: an arrival process
// active on [Start, End) with a base rate, optional modulation parameters,
// and an optional per-class request mix overriding the class defaults.
type Phase struct {
	Kind       string  // poisson | mmpp | wave | flash | ramp
	Start, End float64 // active window, seconds of virtual time

	Rate float64 // base mean arrival rate, requests/second

	// mmpp: a 2-state Markov-modulated Poisson process alternating between
	// Rate (low) and Hi, with exponential dwell times of mean Dwell (low)
	// and HiDwell (high).
	Hi, Dwell, HiDwell float64

	// wave: diurnal modulation Rate * (1 + Amp*sin(2pi*(t-Start)/Period)).
	Amp, Period float64

	// flash: a flash crowd at rate Peak on [FlashAt, FlashAt+Hold), Rate
	// elsewhere in the window.
	Peak, FlashAt, Hold float64

	// ramp: linear rate change from Rate at Start to To at End.
	To float64

	// Mix is the per-class request mix for this phase (sorted by class
	// name); nil uses the class defaults.
	Mix []MixEntry
}

// phaseKey is one numeric parameter of a phase: its spec key and the field
// it sets.
type phaseKey struct {
	key   string
	field func(*Phase) *float64
}

var keyRate = phaseKey{"rate", func(p *Phase) *float64 { return &p.Rate }}

// phaseKeys lists each kind's numeric keys in canonical order. Parsing, the
// foreign-key check and String all read it; every kind also takes mix=.
var phaseKeys = map[string][]phaseKey{
	"poisson": {keyRate},
	"mmpp": {keyRate,
		{"hi", func(p *Phase) *float64 { return &p.Hi }},
		{"dwell", func(p *Phase) *float64 { return &p.Dwell }},
		{"hidwell", func(p *Phase) *float64 { return &p.HiDwell }}},
	"wave": {keyRate,
		{"amp", func(p *Phase) *float64 { return &p.Amp }},
		{"period", func(p *Phase) *float64 { return &p.Period }}},
	"flash": {keyRate,
		{"peak", func(p *Phase) *float64 { return &p.Peak }},
		{"at", func(p *Phase) *float64 { return &p.FlashAt }},
		{"hold", func(p *Phase) *float64 { return &p.Hold }}},
	"ramp": {keyRate, {"to", func(p *Phase) *float64 { return &p.To }}},
}

// String renders the phase in the canonical -arrivals grammar (the form
// FormatArrivals emits and ParseArrivals reparses losslessly).
func (p Phase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s-%s:", p.Kind, spec.Fmt(p.Start), spec.Fmt(p.End))
	for i, k := range phaseKeys[p.Kind] {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k.key, spec.Fmt(*k.field(&p)))
	}
	if len(p.Mix) > 0 {
		parts := make([]string, len(p.Mix))
		for i, m := range p.Mix {
			parts[i] = m.Class + ":" + spec.Fmt(m.Weight)
		}
		fmt.Fprintf(&b, ",mix=%s", strings.Join(parts, "/"))
	}
	return b.String()
}

// FormatArrivals renders phases in the grammar ParseArrivals accepts (its
// exact inverse), so generated workloads can be reported and replayed.
func FormatArrivals(phases []Phase) string { return spec.Join(phases) }

// ParseArrivals parses the -arrivals workload grammar (lexed by package spec):
//
//	spec  := phase (';' phase)*
//	phase := kind '@' start '-' end ':' param (',' param)*
//	param := key '=' value
//	mix   := class ':' weight ('/' class ':' weight)*
//
// where kind selects the arrival process active on [start, end) seconds:
//
//	poisson  rate=R                      homogeneous Poisson arrivals
//	mmpp     rate=R,hi=R2,dwell=D        2-state Markov-modulated Poisson:
//	         [,hidwell=D2]               rate R/R2 with exp. dwell D/D2
//	                                     (hidwell defaults to dwell)
//	wave     rate=R,amp=A,period=P       diurnal wave R*(1+A*sin(2pi t/P))
//	flash    rate=R,peak=R2,at=T,hold=H  flash crowd: R2 on [T, T+H)
//	ramp     rate=R,to=R2                linear ramp from R to R2
//
// Every phase accepts mix=class:w/class:w/... overriding the default
// per-class request mix (weights positive, classes sorted canonically).
// Phases may overlap: overlapping windows superpose their streams.
//
// Example:
//
//	wave@0-3600:rate=0.2,amp=0.5,period=1200;flash@0-3600:rate=0,peak=1,at=1800,hold=120,mix=int:1
//
// Phases are returned sorted by start time (then end, kind, rate) so
// generation order never depends on how the spec string was assembled.
func ParseArrivals(s string) ([]Phase, error) {
	var phases []Phase
	for _, part := range spec.Entries(s) {
		if part == "" {
			continue
		}
		p, err := parsePhase(part)
		if err != nil {
			return nil, fmt.Errorf("frontdoor: bad phase %q: %w", part, err)
		}
		phases = append(phases, p)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("frontdoor: empty arrivals spec")
	}
	sortPhases(phases)
	return phases, nil
}

func parsePhase(s string) (Phase, error) {
	kind, window, rest, err := spec.Head(s)
	if err != nil {
		return Phase{}, err
	}
	keys, ok := phaseKeys[kind]
	if !ok {
		return Phase{}, fmt.Errorf("unknown arrival kind %q (want poisson, mmpp, wave, flash or ramp)", kind)
	}
	p := Phase{Kind: kind}
	if p.Start, p.End, err = spec.Window(window); err != nil {
		return Phase{}, err
	}
	if p.End == 0 {
		return Phase{}, fmt.Errorf("window %q is not start-end", window)
	}
	params, err := spec.Params(rest)
	if err != nil {
		return Phase{}, err
	}
	seen := map[string]bool{}
	for _, kv := range params {
		seen[kv.Key] = true
		if kv.Key == "mix" {
			if p.Mix, err = parseMix(kv.Val); err != nil {
				return Phase{}, err
			}
			continue
		}
		i := slices.IndexFunc(keys, func(k phaseKey) bool { return k.key == kv.Key })
		if i < 0 {
			return Phase{}, fmt.Errorf("%s= does not apply to %s phases", kv.Key, kind)
		}
		v, err := spec.Float(kv.Val)
		if err != nil || v < 0 {
			return Phase{}, fmt.Errorf("%s=%q is not a non-negative finite number", kv.Key, kv.Val)
		}
		*keys[i].field(&p) = v
	}
	if !seen["rate"] {
		return Phase{}, fmt.Errorf("phase needs rate=")
	}
	if err := p.validate(seen); err != nil {
		return Phase{}, err
	}
	return p, nil
}

// validate enforces the per-kind value contract; seen marks which keys the
// spec supplied.
func (p *Phase) validate(seen map[string]bool) error {
	switch p.Kind {
	case "poisson":
		if p.Rate <= 0 {
			return fmt.Errorf("poisson phase needs rate > 0")
		}
	case "mmpp":
		if p.Hi <= 0 || p.Dwell <= 0 {
			return fmt.Errorf("mmpp phase needs hi= and dwell= positive")
		}
		if !seen["hidwell"] {
			p.HiDwell = p.Dwell
		} else if p.HiDwell <= 0 {
			return fmt.Errorf("mmpp hidwell= must be positive")
		}
	case "wave":
		if p.Rate <= 0 {
			return fmt.Errorf("wave phase needs rate > 0")
		}
		if p.Amp <= 0 || p.Amp > 1 {
			return fmt.Errorf("wave amp= must be in (0, 1]")
		}
		if p.Period <= 0 {
			return fmt.Errorf("wave phase needs period > 0")
		}
	case "flash":
		if p.Peak <= 0 {
			return fmt.Errorf("flash phase needs peak > 0")
		}
		if !seen["at"] || p.FlashAt < p.Start || p.FlashAt >= p.End {
			return fmt.Errorf("flash at= must lie inside the window")
		}
		if p.Hold <= 0 {
			return fmt.Errorf("flash phase needs hold > 0")
		}
	case "ramp":
		if p.Rate <= 0 && p.To <= 0 {
			return fmt.Errorf("ramp phase needs rate or to positive")
		}
	}
	return nil
}

// parseMix parses class:w/class:w, canonicalized sorted by class name.
func parseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	seen := map[string]bool{}
	for _, part := range strings.Split(s, "/") {
		cls, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not class:weight", part)
		}
		cls = strings.ToLower(strings.TrimSpace(cls))
		if !validClassName(cls) {
			return nil, fmt.Errorf("mix entry %q needs a class of [a-z0-9_-]", part)
		}
		if seen[cls] {
			return nil, fmt.Errorf("duplicate mix class %q", cls)
		}
		seen[cls] = true
		w, err := spec.Float(weight)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("mix weight %q is not a positive finite number", weight)
		}
		mix = append(mix, MixEntry{Class: cls, Weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].Class < mix[j].Class })
	return mix, nil
}

// validClassName restricts mix class names to lowercase identifiers, so
// the grammar's separators can never hide inside a class.
func validClassName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' && r != '-' {
			return false
		}
	}
	return true
}

// sortPhases orders phases by start, then end, kind and rate — a
// deterministic order, so generation never depends on spec assembly order.
func sortPhases(phases []Phase) {
	sort.SliceStable(phases, func(i, j int) bool {
		a, b := phases[i], phases[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Rate < b.Rate
	})
}
