package main

import (
	"reflect"
	"testing"
	"time"
)

// TestCleanIndices: shares at most maxSteal are kept; when fewer than a
// third are, the least-stolen third is kept instead, in time order.
func TestCleanIndices(t *testing.T) {
	for _, c := range []struct {
		name  string
		steal []float64
		want  []int
	}{
		{"all clean", []float64{0, 0.01, 0.02}, []int{0, 1, 2}},
		{"stolen dropped", []float64{0, 0.3, 0.005, 0.021, 0}, []int{0, 2, 4}},
		{"mostly stolen", []float64{0.5, 0.1, 0.4, 0.05, 0.3, 0.2}, []int{1, 3}},
		{"one slice", []float64{0.9}, []int{0}},
		{"none", nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := cleanIndices(c.steal); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("cleanIndices(%v) = %v, want %v", c.steal, got, c.want)
			}
		})
	}
}

// TestStealFilterKeepsCleanSamples: samples are kept by the slice they
// completed in, and a slice's end belongs to the next slice.
func TestStealFilterKeepsCleanSamples(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	all := []slice{
		{lo: at(0), hi: at(1000), steal: 0},
		{lo: at(1000), hi: at(2000), steal: 0.25},
		{lo: at(2000), hi: at(3000), steal: 0.01},
	}
	kept := cleanSlices(all)
	if len(kept) != 2 || kept[0] != all[0] || kept[1] != all[2] {
		t.Fatalf("kept %v", kept)
	}
	for _, c := range []struct {
		ms   int
		want bool
	}{{-1, false}, {0, true}, {999, true}, {1000, false}, {1999, false}, {2000, true}, {2999, true}, {3000, false}} {
		if got := inSlices(kept, at(c.ms)); got != c.want {
			t.Errorf("inSlices(%dms) = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestUntil: slices are cut off where the load stopped; a slice that
// starts after it is dropped.
func TestUntil(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	all := []slice{{lo: at(0), hi: at(1000)}, {lo: at(1000), hi: at(2000)}, {lo: at(2000), hi: at(2100)}}
	got := until(all, at(1500))
	if len(got) != 2 || got[0] != all[0] || !got[1].hi.Equal(at(1500)) {
		t.Fatalf("until = %v", got)
	}
	if got := until(all, at(3000)); !reflect.DeepEqual(got, all) {
		t.Fatalf("until past the end = %v", got)
	}
}

func TestStolen(t *testing.T) {
	a := cpuReading{total: 1000, steal: 10}
	b := cpuReading{total: 1200, steal: 20}
	if got := stolen(a, b); got != 0.05 {
		t.Fatalf("stolen = %v, want 0.05", got)
	}
	if got := stolen(b, b); got != 0 {
		t.Fatalf("stolen over no time = %v, want 0", got)
	}
}
