package main

import (
	"math"
	"testing"
)

// TestBeyond pins the count behind the tail rule: a percentile is reported
// only when at least minBeyond samples lie above it.
func TestBeyond(t *testing.T) {
	for _, c := range []struct{ n, pm, want int }{
		{1000, 990, 10},
		{999, 990, 9},
		{100, 900, 10},
		{99, 900, 9},
		{20, 500, 10},
		{1, 500, 0},
		{0, 900, 0},
	} {
		if got := beyond(c.n, c.pm); got != c.want {
			t.Errorf("beyond(%d, %d) = %d, want %d", c.n, c.pm, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 50}, {990, 99}, {999, 100}, {1, 1}} {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("p%d = %v, want %v", c.pm, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 500)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython checks the quartiles against Python's
// statistics.quantiles(xs, n=4), which readers use to judge spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
