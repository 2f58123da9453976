package perfmodel

import (
	"math"
	"testing"
)

func TestCacheMemoizesExactly(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Lookup("app", "sig"); ok {
		t.Fatal("empty cache hit")
	}
	c.Store("app", "sig", 42.5)
	if v, ok := c.Lookup("app", "sig"); !ok || v != 42.5 {
		t.Fatalf("Lookup after Store = %v, %v", v, ok)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCacheKeysDoNotAlias(t *testing.T) {
	c := NewCache(0)
	c.Store("ab", "c", 1)
	if _, ok := c.Lookup("a", "bc"); ok {
		t.Fatal("app/sig concatenation aliased across the separator")
	}
	// Sig field boundaries must not alias either.
	var a, b Sig
	a.S("x").S("yz")
	b.S("xy").S("z")
	if a.String() == b.String() {
		t.Fatalf("Sig aliased: %q == %q", a.String(), b.String())
	}
}

func TestSigFloatsAreLossless(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3.0, 1e300, 5e-324, 0.1, 0.1 + 1e-17}
	seen := map[string]float64{}
	for _, v := range vals {
		var s Sig
		s.F(v)
		k := s.String()
		if prev, dup := seen[k]; dup && prev != v {
			t.Fatalf("distinct floats %v and %v share signature %q", prev, v, k)
		}
		seen[k] = v
	}
	// 0.1 + 1e-17 rounds to exactly 0.1 in float64: equal values must share
	// a signature (hit), distinct values must not (no silent wrong answer).
	var s1, s2 Sig
	s1.F(0.1)
	s2.F(0.1 + 1e-17)
	if s1.String() != s2.String() {
		t.Fatalf("bit-equal floats got distinct signatures %q / %q", s1.String(), s2.String())
	}
}

func TestCacheOverflowClearsAndStaysCorrect(t *testing.T) {
	c := NewCache(4)
	sigs := []string{"a", "b", "c", "d", "e", "f"}
	for i, s := range sigs {
		c.Store("app", s, float64(i))
	}
	if len(c.m) > 4 {
		t.Fatalf("cache grew past its bound: %d entries", len(c.m))
	}
	if _, _, resets := c.Stats(); resets == 0 {
		t.Fatal("overflow did not clear the cache")
	}
	// Whatever survives must still be correct.
	for i, s := range sigs {
		if v, ok := c.Lookup("app", s); ok && v != float64(i) {
			t.Fatalf("entry %q corrupted: %v", s, v)
		}
	}
}
