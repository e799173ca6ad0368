package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median needs 10 observations above it
		{20, 50},   // exactly 10 above the median
		{99, 50},   // 9.9 above p90: not enough
		{100, 90},  // 10 above p90
		{999, 90},  // 9.99 above p99
		{1000, 99}, // 10 above p99
		{9999, 99}, // 9.999 above p99.9
		{10000, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeStatesTheSupportedTail(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[len(values)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	got := summarize(values)
	if got.Count != 1000 || got.Tail != 99 || !got.P99Supported {
		t.Fatalf("summarize(1..1000) = %+v, want count 1000 with a supported p99", got)
	}
	if math.Abs(got.P50-500.5) > 1e-9 {
		t.Errorf("p50 = %g, want 500.5", got.P50)
	}
	if math.Abs(got.P99-990.01) > 1e-9 {
		t.Errorf("p99 = %g, want 990.01", got.P99)
	}
	if values[0] != 1000 {
		t.Errorf("summarize reordered its input")
	}

	small := summarize(values[:500])
	if small.P99Supported || small.Tail != 90 {
		t.Errorf("500 observations: tail p%g supported=%v, want p90 and an unsupported p99", small.Tail, small.P99Supported)
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
}
