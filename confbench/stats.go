package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail value read off fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// dist is a sorted sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank q-quantile (0 for an empty set).
func (d dist) at(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[clampIndex(i, len(d))]
}

func (d dist) p50() float64 { return d.at(0.50) }

// tail returns the 99th percentile when at least minBeyond samples lie
// beyond it, and otherwise the highest rank that still has minBeyond
// samples beyond it, with the quantile actually reported. Fewer than
// minBeyond+1 samples give the median.
func (d dist) tail() (value, q float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	if mid := int(math.Ceil(0.5*float64(n))) - 1; i < mid {
		i = mid
	}
	i = clampIndex(i, n)
	return d[i], float64(i+1) / float64(n)
}

func (d dist) p99() float64 { v, _ := d.tail(); return v }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return newDist(xs).at(0.5) }

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
