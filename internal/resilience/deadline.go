package resilience

import "math"

// Deadline is an absolute virtual-time budget for a multi-hop recovery
// operation. It is a plain value passed down the call chain — the emulated
// analogue of context deadline propagation — so a restore that must pull
// twenty checkpoint blobs shares one clock across all twenty retrieves
// instead of granting each hop a fresh timeout. The zero Deadline means
// "no deadline".
type Deadline struct {
	at float64 // absolute virtual time; 0 = none
}

// NoDeadline is the unbounded deadline.
var NoDeadline = Deadline{}

// DeadlineAfter returns a deadline expiring budget seconds after now. A
// non-positive budget yields no deadline.
func DeadlineAfter(now, budget float64) Deadline {
	if budget <= 0 {
		return NoDeadline
	}
	return Deadline{at: now + budget}
}

// Set reports whether the deadline is bounded.
func (d Deadline) Set() bool { return d.at > 0 }

// At returns the absolute expiry time (+Inf when unbounded).
func (d Deadline) At() float64 {
	if !d.Set() {
		return math.Inf(1)
	}
	return d.at
}

// Expired reports whether the deadline has passed at virtual time now.
func (d Deadline) Expired(now float64) bool { return d.Set() && now >= d.at }
