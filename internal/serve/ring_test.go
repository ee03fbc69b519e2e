package serve

import (
	"fmt"
	"testing"
)

// TestRingDeterministicAndBalanced: the ring is a pure function of
// (id, shard count, vnode count) — two rings agree on every key — and
// sequential ids (the router's own srv-NNNNN sequence) spread across
// shards instead of piling onto one.
func TestRingDeterministicAndBalanced(t *testing.T) {
	a, b := newHashRing(3), newHashRing(3)
	counts := make([]int, 3)
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("srv-%05d", i)
		own := a.Owner(id, nil)
		if got := b.Owner(id, nil); got != own {
			t.Fatalf("rings disagree on %s: %d vs %d", id, own, got)
		}
		if own < 0 || own >= 3 {
			t.Fatalf("owner %d out of range for %s", own, id)
		}
		counts[own]++
	}
	for s, n := range counts {
		if n < 100 { // 10% floor on a 3-shard ring: catches hash clustering
			t.Fatalf("shard %d owns only %d/1000 sequential ids: %v", s, n, counts)
		}
	}
}

// TestRingFilteredWalk: the clockwise walk skips filtered shards and
// reports -1 only when every shard is filtered.
func TestRingFilteredWalk(t *testing.T) {
	r := newHashRing(3)
	home := r.Owner("job-x", nil)
	alt := r.Owner("job-x", func(s int) bool { return s != home })
	if alt == home || alt < 0 {
		t.Fatalf("filtered walk returned %d (home %d)", alt, home)
	}
	if got := r.Owner("job-x", func(int) bool { return false }); got != -1 {
		t.Fatalf("fully filtered ring returned %d, want -1", got)
	}
}
