// Package autopilot reproduces the role of the Autopilot toolkit in GrADS:
// sensors for application and resource data, performance contracts that
// compare measured against predicted behavior, a fuzzy-logic decision
// mechanism, and the contract monitor that requests rescheduling when a
// contract is violated (§1, §4.1.1 of the paper).
package autopilot

import "fmt"

// MembershipFunc maps a crisp input to a membership degree in [0, 1].
type MembershipFunc func(x float64) float64

// Triangle returns a triangular membership function rising from a to b and
// falling from b to c.
func Triangle(a, b, c float64) MembershipFunc {
	return func(x float64) float64 {
		switch {
		case x <= a || x >= c:
			return 0
		case x == b:
			return 1
		case x < b:
			return (x - a) / (b - a)
		default:
			return (c - x) / (c - b)
		}
	}
}

// Grade returns a membership function that is 0 below a and rises to 1 at b,
// staying 1 beyond (an "at least" term).
func Grade(a, b float64) MembershipFunc {
	return func(x float64) float64 {
		switch {
		case x <= a:
			return 0
		case x >= b:
			return 1
		default:
			return (x - a) / (b - a)
		}
	}
}

// ReverseGrade returns a membership function that is 1 below a and falls to
// 0 at b (an "at most" term).
func ReverseGrade(a, b float64) MembershipFunc {
	g := Grade(a, b)
	return func(x float64) float64 { return 1 - g(x) }
}

// Var is a fuzzy linguistic variable with named terms.
type Var struct {
	Name  string
	Terms map[string]MembershipFunc
}

// Rule is a zero-order Sugeno rule: if every (variable, term) condition
// holds (AND = min), the rule votes for the crisp Output with its firing
// strength.
type Rule struct {
	If     map[string]string // variable name -> term name
	Output float64
}

// Engine is a zero-order Sugeno fuzzy inference engine: the output is the
// firing-strength-weighted average of rule outputs.
type Engine struct {
	vars  map[string]*Var
	rules []Rule
}

// NewEngine creates an engine over the given variables.
func NewEngine(vars ...*Var) *Engine {
	e := &Engine{vars: make(map[string]*Var, len(vars))}
	for _, v := range vars {
		e.vars[v.Name] = v
	}
	return e
}

// AddRule appends a rule, validating its variable and term names.
func (e *Engine) AddRule(r Rule) error {
	for vn, tn := range r.If {
		v, ok := e.vars[vn]
		if !ok {
			return fmt.Errorf("autopilot: rule references unknown variable %q", vn)
		}
		if _, ok := v.Terms[tn]; !ok {
			return fmt.Errorf("autopilot: variable %q has no term %q", vn, tn)
		}
	}
	e.rules = append(e.rules, r)
	return nil
}

// MustRule is AddRule that panics on invalid rules (for static rule bases).
func (e *Engine) MustRule(r Rule) {
	if err := e.AddRule(r); err != nil {
		panic(err)
	}
}

// Eval runs inference on crisp inputs (one per variable). Variables missing
// from the input map contribute zero membership to rules that use them.
// With no firing rules Eval returns 0.
func (e *Engine) Eval(inputs map[string]float64) float64 {
	num, den := 0.0, 0.0
	for _, r := range e.rules {
		strength := 1.0
		for vn, tn := range r.If {
			x, ok := inputs[vn]
			if !ok {
				strength = 0
				break
			}
			m := e.vars[vn].Terms[tn](x)
			if m < strength {
				strength = m
			}
		}
		num += strength * r.Output
		den += strength
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ViolationEngine builds the decision mechanism the contract monitor uses:
// inputs are the current actual/predicted ratio and its recent trend
// (ratio change per measurement); the output is a violation severity in
// [0, 1].
func ViolationEngine() *Engine {
	ratio := &Var{Name: "ratio", Terms: map[string]MembershipFunc{
		"good":     ReverseGrade(0.9, 1.3),
		"degraded": Triangle(1.0, 1.6, 2.4),
		"bad":      Grade(1.8, 3.0),
	}}
	trend := &Var{Name: "trend", Terms: map[string]MembershipFunc{
		"improving": ReverseGrade(-0.2, 0.0),
		"steady":    Triangle(-0.15, 0, 0.15),
		"worsening": Grade(0.0, 0.2),
	}}
	e := NewEngine(ratio, trend)
	e.MustRule(Rule{If: map[string]string{"ratio": "good"}, Output: 0})
	e.MustRule(Rule{If: map[string]string{"ratio": "degraded", "trend": "improving"}, Output: 0.2})
	e.MustRule(Rule{If: map[string]string{"ratio": "degraded", "trend": "steady"}, Output: 0.5})
	e.MustRule(Rule{If: map[string]string{"ratio": "degraded", "trend": "worsening"}, Output: 0.8})
	e.MustRule(Rule{If: map[string]string{"ratio": "bad"}, Output: 1})
	return e
}
