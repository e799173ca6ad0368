package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may be reported at, lowest
// first. A tail is only reported where the sample supports it.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many observations must lie beyond a percentile before
// it is reported: fewer than ten would make the tail one or two outliers.
const minBeyond = 10

// Timing summarises one latency population: the median, the highest
// supported percentile, and the count they were computed from.
type Timing struct {
	Count int `json:"count"`
	// P50 and the fixed P99 are in the population's unit.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// Tail is the highest percentile of tailLadder with at least minBeyond
	// observations above it, and TailValue its value; Tail is 0 when even
	// the median is unsupported.
	Tail      float64 `json:"tail_percentile"`
	TailValue float64 `json:"tail_value"`
	// P99Supported is false when fewer than minBeyond observations lie
	// above the 99th percentile, so P99 rests on too few samples.
	P99Supported bool `json:"p99_supported"`
}

// supportedTail returns the highest percentile of tailLadder that leaves at
// least minBeyond of n observations beyond it, or 0 when none does.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		// The tolerance absorbs rounding in 100-p (100-99.9 is not 0.1).
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of sorted values by linear
// interpolation between closest ranks (the "R-7" definition). sorted must
// be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// summarize builds the Timing of values (not modified).
func summarize(values []float64) Timing {
	t := Timing{Count: len(values)}
	if len(values) == 0 {
		return t
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	t.P50 = percentile(s, 50)
	t.P99 = percentile(s, 99)
	t.Tail = supportedTail(len(s))
	if t.Tail > 0 {
		t.TailValue = percentile(s, t.Tail)
	}
	t.P99Supported = t.Tail >= 99
	return t
}

// median returns the median of values, or 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}
