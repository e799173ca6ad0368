package main

import (
	"time"
)

// clock is the time source of the open-loop runner; tests substitute a fake
// one so lateness arithmetic can be checked exactly.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// step is one rung of a rate ladder: ops at Rate per second for Duration.
type step struct {
	Rate     float64
	Duration time.Duration
}

// scheduled is one open-loop operation: when it was due (offset from the
// schedule start) and which ladder step it belongs to.
type scheduled struct {
	Due  time.Duration
	Step int
}

// ladderSchedule spaces ops evenly inside each step, steps back to back.
func ladderSchedule(steps []step) []scheduled {
	var out []scheduled
	var base time.Duration
	for si, s := range steps {
		n := int(s.Rate * s.Duration.Seconds())
		gap := time.Duration(float64(time.Second) / s.Rate)
		for i := 0; i < n; i++ {
			out = append(out, scheduled{Due: base + time.Duration(i)*gap, Step: si})
		}
		base += s.Duration
	}
	return out
}

// opResult records one executed operation. Latency is measured from Due,
// not from Start, so a stalled operation charges the wait it imposes on
// every later one.
type opResult struct {
	Due, Start, End time.Time
	Step            int
	Err             error
	// Skipped marks an op never sent because it fell too far behind.
	Skipped bool
}

// Late is how far behind schedule the operation was sent.
func (r opResult) Late() time.Duration { return r.Start.Sub(r.Due) }

// Latency is the time from when the operation was due until it completed.
func (r opResult) Latency() time.Duration { return r.End.Sub(r.Due) }

// runOpenLoop executes ops on one goroutine (one connection): each op is
// sent at its due time, or immediately when the previous one overran it.
// The schedule never slows down because the system does. An op that could
// only be sent more than maxLate after it was due is skipped instead: its
// step has already failed, and sending it would only stretch the run.
func runOpenLoop(clk clock, start time.Time, ops []scheduled, maxLate time.Duration, do func(i int) error) []opResult {
	out := make([]opResult, 0, len(ops))
	for i, op := range ops {
		due := start.Add(op.Due)
		clk.SleepUntil(due)
		st := clk.Now()
		if st.Sub(due) > maxLate {
			out = append(out, opResult{Due: due, Start: st, End: st, Step: op.Step, Skipped: true})
			continue
		}
		err := do(i)
		out = append(out, opResult{Due: due, Start: st, End: clk.Now(), Step: op.Step, Err: err})
	}
	return out
}

// lateness returns every op's sending delay in milliseconds.
func lateness(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.Late())
	}
	return out
}

// stepVerdict evaluates one ladder step against the latency limit: the
// step's p99 latency from due time must be within limit, no op may fail or
// be skipped, and the backlog must not grow — at the step's end no more
// ops may still be waiting to be sent than the limit's worth of the rate.
type stepVerdict struct {
	Rate      float64 `json:"rate"`
	Achieved  float64 `json:"achieved_rps"`
	Latency   Timing  `json:"latency_ms"`
	Failed    int     `json:"failed"`
	Skipped   int     `json:"skipped"`
	Backlog   int     `json:"backlog_at_end"`
	Sustained bool    `json:"sustained"`
}

func evaluateStep(rs []opResult, si int, s step, stepStart time.Time, limit time.Duration) stepVerdict {
	v := stepVerdict{Rate: s.Rate}
	stepEnd := stepStart.Add(s.Duration)
	var lat []float64
	var first, last time.Time
	for _, r := range rs {
		if r.Step != si {
			continue
		}
		if r.Skipped {
			v.Skipped++
			continue
		}
		if r.Err != nil {
			v.Failed++
		}
		lat = append(lat, ms(r.Latency()))
		if first.IsZero() || r.Start.Before(first) {
			first = r.Start
		}
		if r.End.After(last) {
			last = r.End
		}
		if r.Due.Before(stepEnd) && r.Start.After(stepEnd) {
			v.Backlog++
		}
	}
	v.Latency = summarize(lat)
	if n := len(lat); n > 1 && last.After(first) {
		v.Achieved = float64(n) / last.Sub(first).Seconds()
	}
	allowed := int(s.Rate * limit.Seconds())
	if allowed < 1 {
		allowed = 1
	}
	v.Sustained = len(lat) > 0 && v.Failed == 0 && v.Skipped == 0 && v.Latency.P99 <= ms(limit) && v.Backlog <= allowed
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
