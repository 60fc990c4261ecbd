package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples a reported tail percentile must leave
// above it; a percentile with fewer samples beyond it is noise.
const minBeyond = 10

// percentileLadder lists the percentiles the tail rule chooses from.
var percentileLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples. The epsilon keeps float error in p*n (0.9*100 is not
// exactly 90) from moving the rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return max(r, 1)
}

// samplesBeyond returns how many of n samples lie above the nearest-rank
// percentile p.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile returns the highest percentile of the ladder that leaves at
// least minBeyond samples beyond it among n samples, and false when even the
// median does not.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// minSamplesFor returns the smallest sample count at which percentile p
// leaves minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for samplesBeyond(n, p) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile p of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	return xs[rank(len(xs), p)-1]
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
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
