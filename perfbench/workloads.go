package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/feeds"
	"cryptomining/internal/model"
	"cryptomining/internal/obs"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

// Workload sizes. Each is fixed, never derived from the run length, so a
// run's figures depend only on the code, the seed and the host.
const (
	// The paper corpus is drawn from ecosim.DefaultConfig scaled by
	// paperScale (about 1350 samples): paperSamples of them, paperPacked of
	// which carry packer padding (over packedBytes). The static stage's
	// cost follows the packed share, which a plain scaled universe lets
	// swing from 22% to 39% between seeds; drawing a fixed share keeps
	// samples/s comparable across seeds. The draw follows hash order, which
	// thins every campaign alike.
	paperScale   = 0.6
	paperSamples = 1000
	paperPacked  = 280
	packedBytes  = 40_000
	// feedSamples is the stream-feed corpus: large enough that the
	// collector, whose per-sample cost grows with the corpus, dominates.
	feedSamples = 12_000
	// serveWriteRate (samples/s, in batches of serveBatch) stays well
	// below what stream-feed sustains, so writes never queue by design.
	serveWriteRate = 150
	serveBatch     = 10
	// serveBase is how many feed samples the daemon holds before the timed
	// region: a serving daemon has state, so reads, checkpoints and the
	// collector start from a populated view, and checkpoints during the run
	// are of similar size rather than growing from nothing.
	serveBase = 5000
	// serveCheckpoints is how many POST /api/v1/checkpoint the write
	// connection makes during the nominal read window.
	serveCheckpoints = 3
	// readLimit is the read-tier latency limit of read_sustained_rps.
	readLimit = 50 * time.Millisecond
	// readMaxLate is how far behind schedule a GET may fall before the
	// generator skips it (its step has failed by then anyway).
	readMaxLate = 250 * time.Millisecond
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
)

// Repetition of the one-off operations (scenario replay, recovery, the
// final-state checkpoints): each runs at least minReps times and until the
// repetitions have taken minTotal, and reports the median. Short operations
// thus repeat more often, so a burst of host noise moves none of them much.
const (
	minReps  = 2
	minTotal = 1500 * time.Millisecond
	maxReps  = 40
)

// repeatTimed runs fn, which returns the duration of its measured part,
// minReps times and until minTotal has passed, forcing a collection before
// each repetition so none inherits another's garbage.
func repeatTimed(fn func() (time.Duration, error)) []time.Duration {
	var out []time.Duration
	t0 := time.Now()
	for len(out) < maxReps && (len(out) < minReps || time.Since(t0) < minTotal) {
		runtime.GC()
		d, err := fn()
		if err != nil {
			break
		}
		out = append(out, d)
	}
	return out
}

// banDoc is the fixed what-if document every workload replays: every pool
// cooperates with a wallet ban from 2014 on.
var banDoc = scenario.Document{
	Name: "bench-pool-ban",
	Interventions: []scenario.Intervention{{
		Kind:        scenario.KindPoolBan,
		At:          model.Date(2014, 1, 1),
		Cooperation: map[string]scenario.Cooperation{"*": {Cooperative: true, MinIPsToBan: 1}},
	}},
}

// fixture is one generated workload input plus the engine configuration
// that analyses it. The program under test only ever sees the samples.
type fixture struct {
	cfg       stream.Config
	samples   []*model.Sample
	reference *core.Pipeline // paper-corpus only: the batch pipeline over the same corpus
}

func paperFixture(seed int64) fixture {
	c := ecosim.DefaultConfig().Scale(paperScale)
	c.Seed = seed
	u := ecosim.Generate(c)
	var fx fixture
	corpus := feeds.NewCorpus()
	packed, plain := 0, 0
	for _, h := range u.Corpus.Hashes() {
		s, ok := u.Corpus.Get(h)
		if !ok {
			continue
		}
		if len(s.Content) > packedBytes {
			if packed == paperPacked {
				continue
			}
			packed++
		} else {
			if plain == paperSamples-paperPacked {
				continue
			}
			plain++
		}
		corpus.Add(s)
		fx.samples = append(fx.samples, s)
	}
	fx.reference = core.New(core.Config{
		Corpus:      corpus,
		AV:          core.NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
		Resolver:    dnssim.NewResolver(u.Zone),
		Zone:        u.Zone,
		OSINT:       u.OSINT,
		Pools:       u.Pools,
		Network:     u.Network,
		QueryTime:   u.Config.QueryTime,
		GroundTruth: u.GroundTruthBySample,
	})
	fx.cfg = fx.reference.StreamConfig()
	fx.cfg.Shards = runtime.GOMAXPROCS(0)
	return fx
}

func feedFixture(seed int64, n int) fixture {
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: seed, Ledger: true})
	fx := fixture{cfg: stream.Config{
		AV:        gen.AVProvider(),
		Resolver:  dnssim.NewResolver(gen.Zone()),
		Zone:      gen.Zone(),
		Pools:     gen.Pools(),
		Network:   gen.Network(),
		QueryTime: gen.QueryTime(),
		Shards:    runtime.GOMAXPROCS(0),
	}}
	for i := 0; i < n; i++ {
		fx.samples = append(fx.samples, gen.Next().Sample)
	}
	return fx
}

// ingestPass is one closed-loop ingest of a fixture through a fresh engine.
type ingestPass struct {
	wall, cpu, finish, submitBlocked time.Duration
	analyzed                         int64
	peakMiB                          float64
	lags                             []float64
	res                              *stream.Results
	eng                              *stream.Engine
	publishes                        uint64
	// digest and table8 are computed right after the pass, so only the
	// last pass's engine and results need to stay in memory.
	digest, table8 string
}

// runIngest feeds every sample through eng with one producer that calls
// Submit, waiting for each to return (closed loop), then Finish.
func runIngest(r *runner, eng *stream.Engine, fx fixture, tr *tracer) (ingestPass, error) {
	ctx := context.Background()
	eng.Start(ctx)
	p := ingestPass{eng: eng}
	epoch0 := eng.CurrentView().Epoch
	poll := startLagPoller(eng)
	cpu0 := cpuTime()
	dues := make([]time.Time, len(fx.samples))
	passID, endPass := tr.begin("ingest", 0)
	t0 := time.Now()
	for i, s := range fx.samples {
		_, end := tr.begin("stream.Submit", passID)
		dues[i] = time.Now()
		err := eng.Submit(ctx, s)
		p.submitBlocked += time.Since(dues[i])
		end()
		r.op(err)
	}
	_, end := tr.begin("stream.Finish", passID)
	f0 := time.Now()
	res, err := eng.Finish(ctx)
	p.finish = time.Since(f0)
	end()
	p.wall = time.Since(t0)
	endPass()
	p.cpu = cpuTime() - cpu0
	poll.Stop()
	p.peakMiB = liveHeapMiB()
	r.op(err)
	if err != nil {
		return p, fmt.Errorf("Finish: %w", err)
	}
	p.res = res
	p.analyzed = eng.Stats().Analyzed
	p.publishes = eng.CurrentView().Epoch - epoch0
	var missing int
	p.lags, missing = poll.lags(dues)
	r.check("every submission became visible", missingErr(missing))
	return p, nil
}

func missingErr(missing int) error {
	if missing > 0 {
		return fmt.Errorf("%d submissions never became visible", missing)
	}
	return nil
}

// scenarioRunner replays banDoc against one engine, checking every delta
// shows a reduction.
type scenarioRunner struct {
	r  *runner
	m  *scenario.Manager
	tr *tracer
	// export is the time of one ExportState, the fork every replay starts
	// from.
	export time.Duration
}

func newScenarioRunner(r *runner, eng *stream.Engine, cfg stream.Config, reg *obs.Registry, tr *tracer) *scenarioRunner {
	runtime.GC()
	_, end := tr.begin("stream.ExportState", 0)
	e0 := time.Now()
	eng.ExportState()
	sc := &scenarioRunner{r: r, tr: tr, export: time.Since(e0)}
	end()
	cfg.Metrics = nil
	m, err := scenario.NewManager(scenario.Config{Engine: eng, Base: cfg, Metrics: reg, MaxRetained: maxReps})
	r.check("scenario manager", err)
	sc.m = m
	return sc
}

// once replays the document and returns the time from Submit until Wait
// returned the finished job.
func (sc *scenarioRunner) once() (time.Duration, error) {
	if sc.m == nil {
		return 0, errors.New("no scenario manager")
	}
	_, end := sc.tr.begin("scenario.Submit+Wait", 0)
	t0 := time.Now()
	id, err := sc.m.Submit(banDoc)
	var job scenario.Job
	if err == nil {
		job, err = sc.m.Wait(id, 2*time.Minute)
	}
	el := time.Since(t0)
	end()
	if err == nil {
		err = scenarioReduces(job)
	}
	sc.r.check("scenario delta shows a reduction", err)
	return el, err
}

func scenarioReduces(job scenario.Job) error {
	if job.State != scenario.StateDone || job.Result == nil {
		return fmt.Errorf("scenario ended %s: %s", job.State, job.Error)
	}
	res := job.Result
	if !(res.Scenario.XMR < res.Baseline.XMR) {
		return fmt.Errorf("no reduction: baseline %.6f XMR, scenario %.6f XMR", res.Baseline.XMR, res.Scenario.XMR)
	}
	if len(res.Campaigns) == 0 || res.Campaigns[0].DeltaXMR >= 0 {
		return errors.New("no campaign delta shows a reduction")
	}
	return nil
}

// account adds the mix's request counts to the run.
func (rep readReport) account(r *runner) {
	a, f := rep.mix.totals()
	r.attempted += a
	r.failed += f
	if f > 0 {
		r.note(fmt.Sprintf("%d of %d GETs failed", f, a))
	}
}

// stopAndRecover stops d and recovers its directory in two ways:
//   - From a crash: a copy of the directory taken just before the stop,
//     as a daemon that died after its last checkpoint leaves it, with the
//     WAL written since. Resume replays that tail. This recovery is timed
//     (see repeatTimed) and checked for what replay restores: every
//     submission visible again, with the stopped daemon's Submitted,
//     Analyzed and Duplicates counters. Whether the whole exported state
//     matches too is recorded, not checked: replaying a tail can group
//     campaigns differently from the live run (see README.md).
//   - From the stop cmd/streamd makes on SIGTERM: a parting checkpoint,
//     then the listener. Recovering it once must give back exactly the
//     state exported before the stop.
//
// It returns the crash recovery with the median time, and the records the
// daemon had kept.
func stopAndRecover(r *runner, d *daemon, tr *tracer) (recovery, []model.Record) {
	crash, err := tempDir(r.scratch, "crash-")
	if err == nil {
		err = copyDir(d.dir, crash)
	}
	r.check("copy the data directory before the stop", err)
	live := d.eng.Stats()
	before, err := d.stop()
	r.check("daemon stop", err)
	if before == nil {
		return recovery{}, nil
	}
	var kept []model.Record
	for _, o := range before.Outcomes {
		if o.Outcome.Kept {
			kept = append(kept, o.Outcome.Record)
		}
	}
	want := live.Analyzed + live.Duplicates
	wantDigest, err := stateDigest(before)
	before = nil
	if err != nil {
		r.check("state digest", err)
		return recovery{}, kept
	}

	rec, err := recoverDir(d.cfg, d.dir, want, true, tr)
	if err == nil {
		var got string
		if got, err = stateDigest(rec.State); err == nil && got != wantDigest {
			err = fmt.Errorf("recovered state %.12s differs from the state exported before the stop %.12s", got, wantDigest)
		}
	}
	r.check("recovered ExportState equals the pre-stop export", err)
	r.details["recovery_graceful_s"] = rec.Seconds

	var recs []recovery
	repeatTimed(func() (time.Duration, error) {
		rec, err := recoverDir(d.cfg, crash, want, len(recs) == 0, tr)
		if err == nil {
			err = countersEqual(rec.Stats, live)
		}
		r.check("WAL replay restores the visible count and counters", err)
		if err != nil {
			return 0, err
		}
		if rec.State != nil {
			got, err := stateDigest(rec.State)
			r.details["wal_replay_state_equal"] = err == nil && got == wantDigest
			rec.State = nil
		}
		recs = append(recs, rec)
		return time.Duration(rec.Seconds * float64(time.Second)), nil
	})
	if len(recs) == 0 {
		return recovery{}, kept
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seconds < recs[j].Seconds })
	return recs[len(recs)/2], kept
}

// countersEqual compares the submission counters of a recovered engine
// with the stopped one's.
func countersEqual(got, want stream.Stats) error {
	if got.Submitted != want.Submitted || got.Analyzed != want.Analyzed || got.Duplicates != want.Duplicates {
		return fmt.Errorf("recovered submitted/analyzed/duplicates %d/%d/%d, stopped daemon had %d/%d/%d",
			got.Submitted, got.Analyzed, got.Duplicates, want.Submitted, want.Analyzed, want.Duplicates)
	}
	return nil
}

// checkpointOnce times one POST /api/v1/checkpoint.
func checkpointOnce(d *daemon, tr *tracer) (time.Duration, error) {
	cl := d.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, end := tr.begin("http.POST checkpoint", 0)
	t0 := time.Now()
	_, err := cl.Checkpoint(ctx)
	el := time.Since(t0)
	end()
	return el, err
}

// finalOps is what serving a finished ingest's state measured.
type finalOps struct {
	reads          readReport
	ckpts, replays []float64
	export         time.Duration
	rec            recovery
}

// serveFinal serves a finished ingest's state from a daemon: the read
// ladder without writes, then scenario replays and checkpoints taken in
// turn (see repeatTimed), so both spread over the same stretch of time,
// then stop and recovery.
func serveFinal(r *runner, fx fixture, final *stream.EngineState, reg *obs.Registry, tr *tracer) (finalOps, error) {
	var out finalOps
	dir, err := tempDir(r.scratch, "daemon-")
	if err != nil {
		return out, err
	}
	d, err := startDaemon(fx.cfg, dir, final, reg)
	if err != nil {
		return out, err
	}
	out.reads = runReads(d, finalReads, r.seed, time.Time{}, true, tr, nil)
	out.reads.account(r)

	sc := newScenarioRunner(r, d.eng, fx.cfg, reg, tr)
	out.export = sc.export
	repeatTimed(func() (time.Duration, error) {
		replay, err := sc.once()
		if err != nil {
			return 0, err
		}
		out.replays = append(out.replays, replay.Seconds())
		runtime.GC()
		el, err := checkpointOnce(d, tr)
		r.check("checkpoint", err)
		out.ckpts = append(out.ckpts, el.Seconds())
		return replay + el, err
	})
	out.rec, _ = stopAndRecover(r, d, tr)
	return out, nil
}

// serveNominal is the nominal window of the serve-durable read ladder: the
// first 60% of the run.
func serveNominal(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second * 6 / 10
}

// medianSeconds is the median of durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return median(v)
}

// sampleWire converts samples to the ingestion wire form.
func sampleWire(samples []*model.Sample) []apiv1.Sample {
	out := make([]apiv1.Sample, len(samples))
	for i, s := range samples {
		out[i] = api.SampleToWire(s)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
