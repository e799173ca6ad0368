package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/pkg/apiv1"
)

// serveSession is one serve-durable session's measurements.
type serveSession struct {
	setups   []time.Duration
	samples  int
	wall     time.Duration // first write due until the last write visible
	drain    time.Duration // last write sent until it is visible
	analyzed int64
	// cpu is the process CPU over the nominal read window, and cpuSamples
	// the samples absorbed meanwhile: the read load is fixed there, while
	// the climb's depends on how far it gets.
	cpu        time.Duration
	cpuSamples int64
	peakMiB    float64
	lags       []float64
	reads      readReport
	late       []float64
	ckpts      []float64
	postBusy   time.Duration
	replay     time.Duration
	export     time.Duration
	rec        recovery
	publishes  uint64
	reg        *obs.Registry
	// fx holds the warm and written samples and kept the records the
	// daemon kept, for the layer pass.
	fx   fixture
	kept []model.Record
}

// writeOp kinds on the write connection's schedule.
const (
	opWrite = iota
	opCheckpoint
)

// serveSpan is how long the serve-durable writes last: the nominal read
// window, then the longest climb the read ladder can make, so the reads
// always run beside writes.
func serveSpan(seconds int) time.Duration {
	return serveNominal(seconds) + maxClimb(serveReads(seconds).Nominal)
}

// serveWriteSchedule lays out the write connection for a run: NDJSON
// batches at serveWriteRate for serveSpan, and serveCheckpoints
// checkpoints spread evenly over the nominal read window, so that window's
// reads and the write lags always see the same checkpoints and the climb
// sees none. scheduled.Step carries the op kind.
func serveWriteSchedule(seconds int) (ops []scheduled, batches int) {
	total := serveSpan(seconds)
	gap := time.Second * serveBatch / serveWriteRate
	for t := time.Duration(0); t < total; t += gap {
		ops = append(ops, scheduled{Due: t, Step: opWrite})
		batches++
	}
	nominal := serveNominal(seconds)
	for i := 1; i <= serveCheckpoints; i++ {
		ops = append(ops, scheduled{Due: nominal * time.Duration(i) / (serveCheckpoints + 1), Step: opCheckpoint})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops, batches
}

// runServeDurable builds the daemon setupRepeats times over a warm state,
// then for --seconds writes the streamed feed open-loop on one connection
// while the GET ladder runs open-loop on a second, waits until every write
// is visible, replays the what-if document, stops the daemon and recovers
// its directory. A traced run makes one untraced session first, to measure
// the tracing overhead.
func runServeDurable(r *runner) error {
	warm, err := warmDir(r)
	if err != nil {
		return err
	}
	base, err := serveOnce(r, warm, nil, nil)
	if err != nil {
		return err
	}
	lag := summarize(base.lags)
	r.e2e = map[string]float64{
		"setup_s":              medianSeconds(base.setups),
		"ingest_samples_per_s": safeDiv(float64(base.analyzed), base.wall.Seconds()),
		"cpu_ms_per_sample":    safeDiv(ms(base.cpu), float64(base.cpuSamples)),
		"peak_heap_mib":        base.peakMiB,
		"scenario_replay_s":    base.replay.Seconds(),
		"fresh_lag_p50_ms":     lag.P50,
		"fresh_lag_p99_ms":     lag.P99,
		"read_p50_ms":          base.reads.P50,
		"read_p99_ms":          base.reads.P99,
		"read_sustained_rps":   base.reads.Sustained,
		"checkpoint_s":         median(base.ckpts),
		"recovery_s":           base.rec.Seconds,
		"success_rate":         r.successRate(),
	}
	r.details["samples"] = base.samples
	r.details["fresh_lag_ms"] = lag
	r.details["fresh_lag_poll_interval_ms"] = ms(lagPollInterval)
	r.details["read_ladder"] = base.reads.Steps
	r.details["checkpoints_s"] = base.ckpts
	r.details["write_rate"] = serveWriteRate
	r.details["warm_samples"] = serveBase
	if !r.trace {
		return nil
	}

	tr := newTracer(r.runID)
	traced, err := serveOnce(r, warm, obs.NewRegistry(), tr)
	if err != nil {
		return err
	}
	exp, err := scrape(traced.reg)
	if err != nil {
		return err
	}
	r.layer = streamLayerMetrics(exp, traced.wall, runtime.GOMAXPROCS(0), traced.publishes, traced.analyzed)
	for k, v := range daemonLayerMetrics(exp) {
		r.layer[k] = v
	}
	r.layer["stream.submit_blocked_s"] = traced.postBusy.Seconds()
	r.layer["stream.finish_s"] = traced.drain.Seconds()
	r.layer["persist.resume_replayed"] = float64(traced.rec.Replayed)
	r.layer["scenario.export_state_ms"] = ms(traced.export)
	r.layer["bench.generator_late_p99_ms"] = summarize(traced.late).P99
	r.layer["bench.trace_overhead_pct"] = (safeDiv(safeDiv(ms(traced.cpu), float64(traced.cpuSamples)), safeDiv(ms(base.cpu), float64(base.cpuSamples))) - 1) * 100
	for k, v := range layerPass(layerInputs{cfg: traced.fx.cfg, samples: traced.fx.samples, kept: traced.kept}, tr) {
		r.layer[k] = v
	}
	r.spanTotals(tr)
	r.writeTrace(tr)
	return nil
}

// warmDir builds the data directory a serving daemon restarts from: the
// first serveBase samples of the seed's feed, written through a durable
// store (so every submission is sequence-tracked, as in a daemon) and
// checkpointed. It is input preparation, done once per run outside setup_s.
func warmDir(r *runner) (string, error) {
	dir, err := tempDir(r.scratch, "warm-")
	if err != nil {
		return "", err
	}
	fx := feedFixture(r.seed, serveBase)
	d, err := startDaemon(fx.cfg, dir, nil, nil)
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	for _, s := range fx.samples {
		if err := d.store.Submit(ctx, s); err != nil {
			d.close()
			return "", fmt.Errorf("warm state: %w", err)
		}
	}
	if err := waitVisible(d.eng, serveBase, time.Minute); err != nil {
		d.close()
		return "", fmt.Errorf("warm state: %w", err)
	}
	if _, err := d.stop(); err != nil {
		return "", fmt.Errorf("warm state: %w", err)
	}
	return dir, nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// serveOnce runs one serve-durable session from the warm state. reg and tr
// are nil for the untraced session.
func serveOnce(r *runner, warm string, reg *obs.Registry, tr *tracer) (serveSession, error) {
	s := serveSession{reg: reg}
	wops, batches := serveWriteSchedule(r.seconds)
	s.samples = batches * serveBatch

	// Set-up: generate the feed and restart the daemon from a copy of the
	// warm directory (the copy is not timed: it stands for the directory a
	// restarting daemon finds); the median of setupRepeats builds is
	// setup_s, and the last build serves the run. The writes continue the
	// feed where the warm state ends. Between generating and building, off
	// the clock, the live heap is read: the harness's own inputs (the
	// fixture and its wire copies), which peak_heap_mib leaves out.
	var d *daemon
	var wire []apiv1.Sample
	var cfgFx fixture
	var heap0 float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return s, err
			}
			os.RemoveAll(d.dir)
		}
		d, wire, cfgFx = nil, nil, fixture{}
		dir, err := tempDir(r.scratch, "daemon-")
		if err != nil {
			return s, err
		}
		if err := copyDir(warm, dir); err != nil {
			return s, err
		}
		runtime.GC()
		t0 := time.Now()
		fx := feedFixture(r.seed, serveBase+s.samples)
		wire = sampleWire(fx.samples[serveBase:])
		gen := time.Since(t0)
		heap0 = liveHeapMiB()
		t1 := time.Now()
		d, err = startDaemon(fx.cfg, dir, nil, reg)
		if err != nil {
			return s, err
		}
		s.setups = append(s.setups, gen+time.Since(t1))
		cfgFx = fx
	}
	s.fx = cfgFx

	epoch0 := d.eng.CurrentView().Epoch
	visible0, analyzed0 := visibleCount(d.eng), d.eng.Stats().Analyzed
	poll := startLagPoller(d.eng)
	cpu0 := cpuTime()
	start := time.Now().Add(20 * time.Millisecond)

	// Write connection: NDJSON batches and checkpoints, open loop.
	dues := make([]time.Time, s.samples)
	type writeResult struct {
		rs    []opResult
		ckpts []float64
		post  time.Duration
	}
	written := make(chan writeResult, 1)
	go func() {
		cl := d.client()
		var wr writeResult
		next := 0
		wr.rs = runOpenLoop(wallClock{}, start, wops, time.Hour, func(i int) error {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if wops[i].Step == opCheckpoint {
				_, end := tr.begin("http.POST checkpoint", 0)
				t0 := time.Now()
				_, err := cl.Checkpoint(ctx)
				wr.ckpts = append(wr.ckpts, time.Since(t0).Seconds())
				end()
				return err
			}
			b := next
			next++
			batch := wire[b*serveBatch : (b+1)*serveBatch]
			for j := range batch {
				dues[b*serveBatch+j] = start.Add(wops[i].Due)
			}
			_, end := tr.begin("http.POST samples", 0)
			t0 := time.Now()
			res, err := cl.SubmitSamples(ctx, batch)
			wr.post += time.Since(t0)
			end()
			if err == nil && res.Accepted != len(batch) {
				err = fmt.Errorf("accepted %d of %d samples", res.Accepted, len(batch))
			}
			return err
		})
		written <- wr
	}()
	s.reads = runReads(d, serveReads(r.seconds), r.seed, start, false, tr, func() {
		s.cpu = cpuTime() - cpu0
		s.cpuSamples = d.eng.Stats().Analyzed - analyzed0
	})
	wr := <-written
	lastSent := start
	for _, o := range wr.rs {
		r.op(o.Err)
		if o.End.After(lastSent) {
			lastSent = o.End
		}
	}
	s.reads.account(r)
	err := waitVisible(d.eng, visible0+int64(s.samples), time.Minute)
	r.check("every write became visible", err)
	visibleAt := time.Now()
	s.wall = visibleAt.Sub(start)
	s.drain = visibleAt.Sub(lastSent)
	poll.Stop()
	s.peakMiB = liveHeapMiB() - heap0
	s.analyzed = d.eng.Stats().Analyzed - analyzed0
	s.publishes = d.eng.CurrentView().Epoch - epoch0
	var missing int
	s.lags, missing = poll.lags(dues)
	r.check("every submission became visible", missingErr(missing))
	s.ckpts, s.postBusy = wr.ckpts, wr.post
	s.late = append(lateness(wr.rs), s.reads.late...)

	sc := newScenarioRunner(r, d.eng, cfgFx.cfg, reg, tr)
	var replays []time.Duration
	repeatTimed(func() (time.Duration, error) {
		el, err := sc.once()
		replays = append(replays, el)
		return el, err
	})
	s.replay, s.export = time.Duration(medianSeconds(replays)*float64(time.Second)), sc.export
	s.rec, s.kept = stopAndRecover(r, d, tr)
	return s, nil
}
