package perfmodel

import (
	"math"
	"testing"

	"grads/internal/topology"
)

func TestCacheMemoizesExactly(t *testing.T) {
	c := NewCache(0)
	k := TransferKey{From: new(topology.Node), To: new(topology.Node), Bytes: math.Float64bits(1e6), Version: 3}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Store(k, 42.5)
	if v, ok := c.Lookup(k); !ok || v != 42.5 {
		t.Fatalf("Lookup after Store = %v, %v", v, ok)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("Stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCacheKeysDoNotAlias: a key differing from a stored one in any single
// field — direction, node identity, size or network version — misses.
func TestCacheKeysDoNotAlias(t *testing.T) {
	a, b, b2 := new(topology.Node), new(topology.Node), new(topology.Node)
	k := TransferKey{From: a, To: b, Bytes: math.Float64bits(8), Version: 1}
	c := NewCache(0)
	c.Store(k, 1)
	for name, other := range map[string]TransferKey{
		"reversed": {From: b, To: a, Bytes: k.Bytes, Version: k.Version},
		"node":     {From: a, To: b2, Bytes: k.Bytes, Version: k.Version},
		"bytes":    {From: a, To: b, Bytes: math.Float64bits(9), Version: k.Version},
		"version":  {From: a, To: b, Bytes: k.Bytes, Version: 2},
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
		keys[i] = TransferKey{Bytes: math.Float64bits(float64(i + 1))}
		c.Store(keys[i], float64(i))
	}
	if len(c.m) > 4 {
		t.Fatalf("cache grew past its bound: %d entries", len(c.m))
	}
	if _, _, resets := c.Stats(); resets == 0 {
		t.Fatal("overflow did not clear the cache")
	}
	// Whatever survives must still be correct.
	for i, k := range keys {
		if v, ok := c.Lookup(k); ok && v != float64(i) {
			t.Fatalf("entry %d corrupted: %v", i, v)
		}
	}
}
