package main

import (
	"testing"
	"time"
)

func TestCover(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}}
	if got := cover(ivs, 0, 100); got != 5+20+10 {
		t.Fatalf("cover = %d, want 35", got)
	}
	if got := cover(ivs, 12, 45); got != 18+5 {
		t.Fatalf("clipped cover = %d, want 23", got)
	}
}

// TestSplitRequestAddsUp: the layers of a request sum to its client span,
// also when spans of one layer overlap, whose union counts once.
func TestSplitRequestAddsUp(t *testing.T) {
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	cs := clientSpan{start: at(0), end: at(1000)}
	handlers := []interval{{200, 600}, {300, 700}}
	strategy := []interval{{250, 400}, {350, 500}}
	st := splitRequest(cs, handlers, strategy)
	if !st.matched {
		t.Fatal("request not matched")
	}
	if st.net != 500 || st.plat != 250 || st.coreNS != 250 {
		t.Fatalf("split = %+v, want net 500 platform 250 core 250", st)
	}
	if sum := st.net + st.plat + st.coreNS; sum != 1000 {
		t.Fatalf("layers add up to %d, want 1000", sum)
	}
	if st := splitRequest(cs, nil, nil); st.matched {
		t.Fatal("a request without server spans must not match")
	}
}
