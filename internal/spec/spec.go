// Package spec is the lexical layer of the one-line workload grammars
// (-faults, -jobs, -arrivals, -zoo) and of the DML grid description's
// attributes: entries, heads, windows, key=value lists and numbers, every
// token trimmed. What the tokens mean — kinds, keys, ranges, defaults,
// canonical order — stays with each grammar.
package spec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Entries splits s at ';' and trims each entry. Blank entries are kept, so
// each grammar decides whether to skip or reject them.
func Entries(s string) []string {
	parts := strings.Split(s, ";")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Head splits an entry "kind@when:rest" at its first '@' and the first ':'
// after it. The kind is lower-cased; all three parts are trimmed.
func Head(entry string) (kind, when, rest string, err error) {
	kind, tail, ok := strings.Cut(entry, "@")
	if !ok {
		return "", "", "", errors.New("missing '@'")
	}
	when, rest, ok = strings.Cut(tail, ":")
	if !ok {
		return "", "", "", errors.New("missing ':' before target or parameters")
	}
	return strings.ToLower(strings.TrimSpace(kind)), strings.TrimSpace(when), strings.TrimSpace(rest), nil
}

// Window parses a "start[-end]" time window. The first '-' always
// separates, so neither bound can be negative. end is 0 when the window has
// none; otherwise it lies after start.
func Window(s string) (start, end float64, err error) {
	lo, hi, ranged := strings.Cut(s, "-")
	if !ranged {
		if start, err = Float(s); err != nil {
			return 0, 0, fmt.Errorf("bad time %q", strings.TrimSpace(s))
		}
		return start, 0, nil
	}
	if start, err = Float(lo); err != nil {
		return 0, 0, fmt.Errorf("bad start time %q", strings.TrimSpace(lo))
	}
	if end, err = Float(hi); err != nil {
		return 0, 0, fmt.Errorf("bad end time %q", strings.TrimSpace(hi))
	}
	if end <= start {
		return 0, 0, fmt.Errorf("end %g not after start %g", end, start)
	}
	return start, end, nil
}

// Param is one item of a key=value list, both sides trimmed.
type Param struct{ Key, Val string }

// Params splits a ','-separated key=value list in written order. An item
// without '=' and a key given twice are errors.
func Params(s string) ([]Param, error) { return ParamList(strings.Split(s, ",")) }

// ParamList lexes key=value items that are already split apart (say, the
// whitespace-separated fields of a line), with the rules of Params.
func ParamList(items []string) ([]Param, error) {
	var out []Param
	for _, item := range items {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("bad param %q (want key=value)", strings.TrimSpace(item))
		}
		p := Param{strings.TrimSpace(key), strings.TrimSpace(val)}
		if slices.ContainsFunc(out, func(q Param) bool { return q.Key == p.Key }) {
			return nil, fmt.Errorf("duplicate key %q", p.Key)
		}
		out = append(out, p)
	}
	return out, nil
}

// Float parses a finite number, ignoring surrounding space. NaN and the
// infinities are rejected: a non-finite time or magnitude would wedge the
// event loop that consumes it.
func Float(s string) (float64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a number", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is out of range", s)
	}
	return v, nil
}

// Fmt renders a non-negative finite value in fixed notation, which keeps
// the '-' of an exponent such as "e-07" out of windows. Float reparses
// every value Fmt renders to the same bits.
func Fmt(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Join renders items with their String methods, separated by ';'.
func Join[T fmt.Stringer](items []T) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ";")
}
