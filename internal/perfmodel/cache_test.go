package perfmodel

import (
	"testing"

	"grads/internal/topology"
)

func TestCacheMemoizesExactly(t *testing.T) {
	c := NewCache(0)
	k := TransferKey{From: new(topology.Site), To: new(topology.Site), Version: 3}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache hit")
	}
	want := Route{Latency: 0.25, Rate: 1e6}
	c.Store(k, want)
	if v, ok := c.Lookup(k); !ok || v != want {
		t.Fatalf("Lookup after Store = %v, %v", v, ok)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCacheKeysDoNotAlias: a key differing from a stored one in any single
// field — direction, either site or network version — misses.
func TestCacheKeysDoNotAlias(t *testing.T) {
	a, b, b2 := new(topology.Site), new(topology.Site), new(topology.Site)
	k := TransferKey{From: a, To: b, Version: 1}
	c := NewCache(0)
	c.Store(k, Route{Latency: 1, Rate: 1})
	for name, other := range map[string]TransferKey{
		"reversed": {From: b, To: a, Version: k.Version},
		"to site":  {From: a, To: b2, Version: k.Version},
		"from":     {From: b2, To: b, Version: k.Version},
		"version":  {From: a, To: b, Version: 2},
	} {
		if _, ok := c.Lookup(other); ok {
			t.Errorf("%s: key aliased the stored one", name)
		}
	}
}

func TestCacheOverflowClearsAndStaysCorrect(t *testing.T) {
	c := NewCache(4)
	keys := make([]TransferKey, 6)
	for i := range keys {
		keys[i] = TransferKey{Version: int64(i + 1)}
		c.Store(keys[i], Route{Rate: float64(i)})
	}
	if len(c.m) > 4 {
		t.Fatalf("cache grew past its bound: %d entries", len(c.m))
	}
	if _, _, resets := c.Stats(); resets == 0 {
		t.Fatal("overflow did not clear the cache")
	}
	// Whatever survives must still be correct.
	for i, k := range keys {
		if v, ok := c.Lookup(k); ok && v.Rate != float64(i) {
			t.Fatalf("entry %d corrupted: %v", i, v)
		}
	}
}
