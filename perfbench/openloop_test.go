package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when told to, so schedules run instantly and
// their arithmetic is exact.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestLadderSchedule(t *testing.T) {
	ops := ladderSchedule([]step{{Rate: 1000, Duration: 10 * time.Millisecond}, {Rate: 500, Duration: 10 * time.Millisecond}})
	if len(ops) != 15 {
		t.Fatalf("%d ops, want 10 + 5", len(ops))
	}
	if ops[9].Due != 9*time.Millisecond || ops[9].Step != 0 {
		t.Errorf("op 9 = %+v, want due 9ms in step 0", ops[9])
	}
	if ops[10].Due != 10*time.Millisecond || ops[11].Due != 12*time.Millisecond || ops[10].Step != 1 {
		t.Errorf("step 1 starts %+v, %+v; want 10ms then 12ms", ops[10], ops[11])
	}
}

func TestOpenLoopChargesLatenessFromDueTime(t *testing.T) {
	clk := &fakeClock{now: epoch}
	ops := ladderSchedule([]step{{Rate: 1000, Duration: 5 * time.Millisecond}})
	// Every op takes 3 ms against a 1 ms schedule: op k is sent 2k ms late
	// and completes 3(k+1) ms after the start, 2k+3 ms after it was due.
	rs := runOpenLoop(clk, epoch, ops, time.Hour, func(int) error {
		clk.now = clk.now.Add(3 * time.Millisecond)
		return nil
	})
	if len(rs) != 5 {
		t.Fatalf("%d results, want 5", len(rs))
	}
	for k, r := range rs {
		if want := time.Duration(2*k) * time.Millisecond; r.Late() != want {
			t.Errorf("op %d late %v, want %v", k, r.Late(), want)
		}
		if want := time.Duration(2*k+3) * time.Millisecond; r.Latency() != want {
			t.Errorf("op %d latency %v, want %v", k, r.Latency(), want)
		}
	}
	if got := lateness(rs); got[4] != 8 {
		t.Errorf("lateness of op 4 = %g ms, want 8", got[4])
	}
}

func TestOpenLoopOnScheduleIsNeverLate(t *testing.T) {
	clk := &fakeClock{now: epoch}
	ops := ladderSchedule([]step{{Rate: 100, Duration: 100 * time.Millisecond}})
	rs := runOpenLoop(clk, epoch, ops, time.Hour, func(int) error {
		clk.now = clk.now.Add(time.Millisecond)
		return nil
	})
	for k, r := range rs {
		if r.Late() != 0 || r.Latency() != time.Millisecond {
			t.Fatalf("op %d late %v latency %v, want 0 and 1ms", k, r.Late(), r.Latency())
		}
	}
	v := evaluateStep(rs, 0, step{Rate: 100, Duration: 100 * time.Millisecond}, epoch, 50*time.Millisecond)
	if !v.Sustained || v.Backlog != 0 || v.Latency.Count != 10 {
		t.Errorf("verdict %+v, want a sustained step of 10 ops", v)
	}
}

func TestOpenLoopSkipsOpsTooFarBehind(t *testing.T) {
	clk := &fakeClock{now: epoch}
	ops := ladderSchedule([]step{{Rate: 1000, Duration: 10 * time.Millisecond}})
	calls := 0
	rs := runOpenLoop(clk, epoch, ops, 4*time.Millisecond, func(int) error {
		calls++
		clk.now = clk.now.Add(5 * time.Millisecond)
		return nil
	})
	if len(rs) != 10 {
		t.Fatalf("%d results, want every op recorded", len(rs))
	}
	// op 0 runs 0-5ms; op 1 (due 1ms) is 4ms late: sent, runs 5-10ms.
	// ops 2-5 are 5-8ms late at 10ms: skipped, which takes no time, so op 6
	// is 4ms late: sent, runs 10-15ms; ops 7-9 are skipped again.
	if calls != 3 {
		t.Errorf("%d ops sent, want 3", calls)
	}
	v := evaluateStep(rs, 0, step{Rate: 1000, Duration: 10 * time.Millisecond}, epoch, 50*time.Millisecond)
	if v.Sustained || v.Skipped != 7 {
		t.Errorf("verdict %+v, want an unsustained step with 7 skipped ops", v)
	}
}

func TestStepVerdictCountsBacklogAndFailures(t *testing.T) {
	s := step{Rate: 1000, Duration: 10 * time.Millisecond}
	var rs []opResult
	for k := 0; k < 10; k++ {
		due := epoch.Add(time.Duration(k) * time.Millisecond)
		start := due
		if k >= 5 {
			start = epoch.Add(11 * time.Millisecond) // still queued at the step's end
		}
		rs = append(rs, opResult{Due: due, Start: start, End: start.Add(time.Millisecond)})
	}
	v := evaluateStep(rs, 0, s, epoch, 50*time.Millisecond)
	if v.Backlog != 5 || !v.Sustained {
		t.Errorf("verdict %+v, want backlog 5, within the 50 a 50ms limit allows at 1000/s", v)
	}
	v = evaluateStep(rs, 0, s, epoch, 3*time.Millisecond)
	if v.Backlog != 5 || v.Sustained {
		t.Errorf("verdict %+v, want backlog 5 over the 3 a 3ms limit allows", v)
	}

	rs[0].Err = errors.New("503")
	for i := range rs {
		rs[i].Start, rs[i].End = rs[i].Due, rs[i].Due.Add(time.Millisecond)
	}
	v = evaluateStep(rs, 0, s, epoch, 50*time.Millisecond)
	if v.Failed != 1 || v.Sustained {
		t.Errorf("verdict %+v, want one failure and an unsustained step", v)
	}
}
