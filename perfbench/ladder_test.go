package main

import (
	"math"
	"testing"
)

// limitAt passes every rung at or below limit, achieving 99% of its rate.
func limitAt(limit float64, tried *[]float64) func(step) stepVerdict {
	return func(s step) stepVerdict {
		*tried = append(*tried, s.Rate)
		return stepVerdict{Rate: s.Rate, Achieved: 0.99 * s.Rate, Sustained: s.Rate <= limit}
	}
}

func TestClimbBisectsBetweenPassAndFail(t *testing.T) {
	var tried []float64
	limit := 500 * climbFactor * climbFactor * 1.1
	_, sustained := climb(500, limitAt(limit, &tried))
	// Two climbing rungs pass and the third fails; the bisection then
	// narrows the gap between the second and the third.
	lo, hi := 500*climbFactor*climbFactor, 500*climbFactor*climbFactor*climbFactor
	if len(tried) != 3+bisectRungs {
		t.Fatalf("tried %v, want 3 climbing rungs and %d bisecting ones", tried, bisectRungs)
	}
	for _, rate := range tried[3:] {
		if mid := math.Sqrt(lo * hi); math.Abs(rate-mid) > 1e-6 {
			t.Fatalf("bisecting rung %.3f, want %.3f", rate, mid)
		}
		if rate <= limit {
			lo = rate
		} else {
			hi = rate
		}
	}
	if math.Abs(sustained-0.99*lo) > 1e-6 {
		t.Errorf("sustained %.3f, want the achieved rate of the highest passing rung %.3f", sustained, 0.99*lo)
	}
}

func TestClimbStopsAtTheTopRung(t *testing.T) {
	var tried []float64
	_, sustained := climb(500, limitAt(math.Inf(1), &tried))
	if len(tried) != climbRungs {
		t.Fatalf("tried %v, want %d rungs and no bisection", tried, climbRungs)
	}
	if top := 500 * math.Pow(climbFactor, climbRungs); math.Abs(sustained-0.99*top) > 1e-6 {
		t.Errorf("sustained %.3f, want %.3f", sustained, 0.99*top)
	}
}

func TestClimbWithNoPassingRungReportsZero(t *testing.T) {
	var tried []float64
	if _, sustained := climb(500, limitAt(0, &tried)); sustained != 0 {
		t.Errorf("sustained %.3f, want 0 so the caller falls back to the nominal rate", sustained)
	}
}

func TestRungHoldsEnoughRequestsForP99(t *testing.T) {
	for _, rate := range []float64{300, 625, 1000, 4000} {
		s := rung(rate)
		if n := int(s.Rate * s.Duration.Seconds()); n < rungOps-1 {
			t.Errorf("rung at %.0f/s holds %d requests, want %d", rate, n, rungOps)
		}
		if s.Duration < rungMin {
			t.Errorf("rung at %.0f/s lasts %v, want at least %v", rate, s.Duration, rungMin)
		}
	}
	if d := maxClimb(500); d < climbRungs*rungMin || d > (climbRungs+bisectRungs)*2*rungMin {
		t.Errorf("maxClimb(500) = %v, want the sum of the rungs", d)
	}
}
