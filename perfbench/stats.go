package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported tail percentile must have
// above it; a percentile resting on fewer is refused, not reported.
const minBeyond = 10

// median returns the median of xs (the mean of the two middle values for
// an even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-th percentile (0 < q < 1) of xs, and
// refuses when fewer than minBeyond samples lie above that rank.
func tail(xs []float64, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("tail: percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("tail: p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// samplesFor is the smallest sample count at which tail(., q) is defined.
func samplesFor(q float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is 0 for no samples: a layer that did no work.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
