package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer samples moves with
// a single outlier.
const minBeyond = 10

// beyond returns how many of n samples lie above the nearest-rank
// percentile pm (in thousandths).
func beyond(n, pm int) int {
	rank := (pm*n + 999) / 1000
	return n - rank
}

// percentile returns the nearest-rank percentile pm (in thousandths) of
// sorted, or NaN when sorted is empty.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (pm*len(sorted) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones a Python
// reader computes from the same values. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
