package main

import (
	"math"
	"testing"
)

func seq(n int) dist {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return newDist(xs)
}

// TestTailKeepsTenSamplesBeyond checks the reporting rule for tail
// percentiles: the 99th when at least ten samples lie beyond it, otherwise
// the highest rank with ten beyond, and never below the median.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{1, 5, 11, 20, 21, 50, 500, 999, 1000, 1001, 5000} {
		d := seq(n)
		v, q := d.tail()
		rank := int(v) // samples are 1..n, so a value is its rank
		beyond := n - rank
		switch {
		case n >= 1000:
			if want := int(math.Ceil(0.99 * float64(n))); rank != want {
				t.Errorf("n=%d: rank %d, want the 99th percentile's %d", n, rank, want)
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond", n, beyond)
			}
		case n > 2*minBeyond:
			if beyond != minBeyond {
				t.Errorf("n=%d: %d samples beyond, want exactly %d", n, beyond, minBeyond)
			}
		default:
			if rank != int(math.Ceil(0.5*float64(n))) {
				t.Errorf("n=%d: rank %d, want the median when fewer than %d samples exist", n, rank, 2*minBeyond+1)
			}
		}
		if want := float64(rank) / float64(n); q != want {
			t.Errorf("n=%d: reported quantile %v, want %v", n, q, want)
		}
	}
	if v, q := newDist(nil).tail(); v != 0 || q != 0 {
		t.Errorf("empty: got %v at %v", v, q)
	}
}

func TestMedianNearestRank(t *testing.T) {
	if got := seq(4).p50(); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
	if got := seq(5).p50(); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
}
