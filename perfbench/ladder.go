package main

import (
	"math"
	"runtime"
	"time"
)

// readLadder is a read ladder: the nominal rate over nominalWindows equal
// windows, then a climb to the rate where the read tier stops keeping up.
// The nominal latency is the median over the windows of each window's p50
// and p99, so one window hit by a burst of host noise or a collection does
// not move the run.
type readLadder struct {
	Nominal float64       // req/s
	Window  time.Duration // length of each nominal window
}

// nominalWindows is how many windows the nominal rate is measured over;
// each holds at least 1000 requests, so its p99 has ten beyond it.
const nominalWindows = 3

// The climb above the nominal rate: rungs climbFactor apart, starting one
// factor above nominal, until a rung fails or climbRungs have passed; then
// bisectRungs rungs, each at the geometric middle of the highest passing
// and the lowest failing rate. Every rung lasts rungMin or as long as
// 1000 requests take, whichever is longer, so its p99 has ten beyond it.
const (
	climbFactor = 1.5
	climbRungs  = 9
	bisectRungs = 3
	rungMin     = 500 * time.Millisecond
	rungOps     = 1000
)

func (l readLadder) nominal() []step {
	out := make([]step, nominalWindows)
	for i := range out {
		out[i] = step{Rate: l.Nominal, Duration: l.Window}
	}
	return out
}

// rung is the ladder step at rate.
func rung(rate float64) step {
	d := time.Duration(rungOps / rate * float64(time.Second))
	return step{Rate: rate, Duration: max(d, rungMin)}
}

// maxClimb is the longest a climb from nominal can take.
func maxClimb(nominal float64) time.Duration {
	var total, longest time.Duration
	rate := nominal
	for i := 0; i < climbRungs; i++ {
		rate *= climbFactor
		d := rung(rate).Duration
		total += d
		longest = max(longest, d)
	}
	return total + bisectRungs*longest
}

// climb runs rungs above nominal through try, which runs one rung and
// returns its verdict, and returns every verdict in the order run. The
// sustained rate is the achieved rate of the highest passing rung.
func climb(nominal float64, try func(step) stepVerdict) (verdicts []stepVerdict, sustained float64) {
	lo, hi := nominal, 0.0
	for i := 0; i < climbRungs; i++ {
		v := try(rung(lo * climbFactor))
		verdicts = append(verdicts, v)
		if !v.Sustained {
			hi = v.Rate
			break
		}
		lo, sustained = v.Rate, v.Achieved
	}
	for i := 0; hi > 0 && i < bisectRungs; i++ {
		v := try(rung(math.Sqrt(lo * hi)))
		verdicts = append(verdicts, v)
		if v.Sustained {
			lo, sustained = v.Rate, v.Achieved
		} else {
			hi = v.Rate
		}
	}
	return verdicts, sustained
}

// finalReads is the ladder over a finished ingest's state.
var finalReads = readLadder{Nominal: 500, Window: 2 * time.Second}

// serveReads is the ladder beside the serve-durable writes: 1000 requests
// in each nominal window, which together fill the first 60% of --seconds
// (see serveNominal); the climb follows while the writes go on.
func serveReads(seconds int) readLadder {
	w := serveNominal(seconds) / nominalWindows
	return readLadder{Nominal: 1000 / w.Seconds(), Window: w}
}

// readReport summarises one read ladder.
type readReport struct {
	Steps []stepVerdict `json:"steps"`
	// P50 and P99 are the medians over the nominal windows, in ms.
	P50       float64 `json:"nominal_p50_ms"`
	P99       float64 `json:"nominal_p99_ms"`
	Sustained float64 `json:"sustained_rps"`
	// late is the generator's sending delay over the nominal windows, where
	// the read latency is reported.
	late []float64
	mix  *readMix
}

// runReads drives the GET mix over the ladder on one connection: the
// nominal windows back to back from start, then the climb. Fenced, every
// window and rung starts right after a forced collection (and the nominal
// windows do not wait for start): an idle daemon's reads allocate so slowly
// that a natural collection would land in some windows and not in others,
// and make their p99 jump. read_sustained_rps is the achieved rate of the
// highest passing rung, or of the nominal rate when no rung passes; it is
// 0 when the nominal rate fails in most of its windows. afterNominal, when
// set, runs between the nominal windows and the climb.
func runReads(d *daemon, l readLadder, seed int64, start time.Time, fenced bool, tr *tracer, afterNominal func()) readReport {
	mix := newReadMix(d.client(), seed, tr)
	sent := 0
	// run runs one window or rung from at, or from now when at is zero.
	run := func(s step, at time.Time) (stepVerdict, []opResult) {
		if fenced {
			runtime.GC()
		}
		if fenced || at.IsZero() {
			at = time.Now().Add(5 * time.Millisecond)
		}
		ops := ladderSchedule([]step{s})
		base := sent
		sent += len(ops)
		rs := runOpenLoop(wallClock{}, at, ops, readMaxLate, func(i int) error { return mix.do(base + i) })
		return evaluateStep(rs, 0, s, at, readLimit), rs
	}

	rep := readReport{mix: mix}
	var p50, p99, achieved []float64
	passed := 0
	for i, s := range l.nominal() {
		v, rs := run(s, start.Add(time.Duration(i)*l.Window))
		rep.late = append(rep.late, lateness(rs)...)
		rep.Steps = append(rep.Steps, v)
		p50 = append(p50, v.Latency.P50)
		p99 = append(p99, v.Latency.P99)
		achieved = append(achieved, v.Achieved)
		if v.Sustained {
			passed++
		}
	}
	rep.P50, rep.P99 = median(p50), median(p99)
	if afterNominal != nil {
		afterNominal()
	}
	// The nominal rate is sustained when most of its windows are, the same
	// majority its reported latency is the median of.
	if 2*passed <= nominalWindows {
		return rep
	}
	rungs, sustained := climb(l.Nominal, func(s step) stepVerdict {
		v, _ := run(s, time.Time{})
		return v
	})
	rep.Steps = append(rep.Steps, rungs...)
	rep.Sustained = sustained
	if sustained == 0 {
		rep.Sustained = median(achieved)
	}
	return rep
}
