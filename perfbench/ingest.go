package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cryptomining/internal/obs"
	"cryptomining/internal/stream"
)

// ingestWorkload describes one closed-loop ingest workload.
type ingestWorkload struct {
	generate func(seed int64) fixture
	// check verifies the passes' output digests; it runs after the timed
	// region.
	check func(r *runner, fx fixture, passes []ingestPass)
}

func runPaperCorpus(r *runner) error {
	return runIngestWorkload(r, ingestWorkload{generate: paperFixture, check: checkAgainstBatch})
}

func runStreamFeed(r *runner) error {
	return runIngestWorkload(r, ingestWorkload{
		generate: func(seed int64) fixture { return feedFixture(seed, feedSamples) },
		check:    checkDeterministic,
	})
}

// checkAgainstBatch compares every pass with the single-shard core batch
// pipeline on the same seed: results digest and the rendered Table VIII.
// The reference runs after the timed region, outside setup; a run of the
// same seed and source tree reuses the reference an earlier run computed.
func checkAgainstBatch(r *runner, fx fixture, passes []ingestPass) {
	ref, err := batchReference(r, fx)
	if err != nil {
		r.check("batch reference", err)
		return
	}
	for i, p := range passes {
		r.check("results equal the single-shard batch reference", digestsEqual(i, p.digest, ref.Digest))
		var err error
		if p.table8 != ref.Table8 {
			err = fmt.Errorf("pass %d Table VIII differs:\n%s\nreference:\n%s", i, p.table8, ref.Table8)
		}
		r.check("Table VIII equals the batch reference", err)
	}
	r.details["results_digest"] = ref.Digest
}

// reference is the batch pipeline's output for one seed.
type reference struct {
	Digest string `json:"digest"`
	Table8 string `json:"table_viii"`
}

func batchReference(r *runner, fx fixture) (reference, error) {
	path := filepath.Join(r.root, ".bench_build", "references",
		fmt.Sprintf("%s-seed%d-%s.json", r.workload, r.seed, sourceDigest(r.root)))
	var ref reference
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &ref) == nil && ref.Digest != "" {
		return ref, nil
	}
	res, err := fx.reference.Run()
	r.op(err)
	if err != nil {
		return ref, err
	}
	if ref.Digest, err = resultsDigest(res); err != nil {
		return ref, err
	}
	ref.Table8 = tableVIII(res)
	if b, err := json.Marshal(ref); err == nil && os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		_ = os.WriteFile(path, b, 0o644) // a lost cache entry only costs the next run a recompute
	}
	return ref, nil
}

// checkDeterministic requires every pass, and every earlier run of the same
// seed and source tree, to produce the same results digest.
func checkDeterministic(r *runner, _ fixture, passes []ingestPass) {
	first := passes[0].digest
	for i, p := range passes {
		r.check("results digest identical across passes", digestsEqual(i, p.digest, first))
	}
	key := fmt.Sprintf("%s-seed%d-%s", r.workload, r.seed, sourceDigest(r.root))
	r.check("results digest identical across runs of the seed",
		checkRecordedDigest(filepath.Join(r.root, ".bench_build", "digests"), key, first))
	r.details["results_digest"] = first
}

func digestsEqual(pass int, got, want string) error {
	if got != want {
		return fmt.Errorf("%w: pass %d %.12s, expected %.12s", errDigestMismatch, pass, got, want)
	}
	return nil
}

// runIngestWorkload sets up setupRepeats times (generation plus engine
// construction), then runs closed-loop passes over fresh engines until the
// timed region has lasted --seconds, at least one pass. Before each pass's
// engine is built, the live heap is read: the harness's own inputs (the
// fixture, and on paper-corpus the batch reference), which peak_heap_mib
// leaves out. A traced run makes
// exactly two passes, the first untraced, to measure the tracing overhead.
// Only the last pass's engine is kept: it replays the what-if document, and
// its final state is served, read, checkpointed, stopped and recovered like
// a daemon's.
func runIngestWorkload(r *runner, w ingestWorkload) error {
	var setups []time.Duration
	var fx fixture
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		f := w.generate(r.seed)
		stream.New(f.cfg)
		setups = append(setups, time.Since(t0))
		if i == 0 {
			fx = f
		}
	}

	var tr *tracer
	var reg *obs.Registry
	var passes []ingestPass
	var last ingestPass
	t0 := time.Now()
	for i := 0; ; i++ {
		traced := r.trace && i == 1
		cfg := fx.cfg
		if traced {
			tr, reg = newTracer(r.runID), obs.NewRegistry()
			cfg.Metrics = reg
		}
		last = ingestPass{} // release the previous pass's engine first
		heap0 := liveHeapMiB()
		p, err := runIngest(r, stream.New(cfg), fx, tr)
		if err != nil {
			return err
		}
		p.peakMiB -= heap0
		if p.digest, err = resultsDigest(p.res); err != nil {
			return err
		}
		p.table8 = tableVIII(p.res)
		passes = append(passes, p)
		last = p
		passes[i].eng, passes[i].res = nil, nil
		if traced || !r.trace && time.Since(t0) >= time.Duration(r.seconds)*time.Second {
			break
		}
	}
	w.check(r, fx, passes)
	untraced := passes
	if r.trace {
		untraced = passes[:1]
	}

	// Epilogue: the final state served as a daemon.
	var epReg *obs.Registry
	if r.trace {
		epReg = obs.NewRegistry()
	}
	final, kept := last.eng.ExportState(), last.res.Records
	last.eng, last.res = nil, nil // the daemon below serves its own copy
	ops, err := serveFinal(r, fx, final, epReg, tr)
	if err != nil {
		return err
	}

	// Pass-level figures are medians over the passes, so one pass hit by a
	// burst of host noise does not move the run.
	var rate, cpuPer, lagP50, lagP99 []float64
	var peak float64
	for _, p := range untraced {
		rate = append(rate, safeDiv(float64(p.analyzed), p.wall.Seconds()))
		cpuPer = append(cpuPer, safeDiv(ms(p.cpu), float64(p.analyzed)))
		lag := summarize(p.lags)
		lagP50 = append(lagP50, lag.P50)
		lagP99 = append(lagP99, lag.P99)
		peak = max(peak, p.peakMiB)
	}
	r.e2e = map[string]float64{
		"setup_s":              medianSeconds(setups),
		"ingest_samples_per_s": median(rate),
		"cpu_ms_per_sample":    median(cpuPer),
		"peak_heap_mib":        peak,
		"scenario_replay_s":    median(ops.replays),
		"fresh_lag_p50_ms":     median(lagP50),
		"fresh_lag_p99_ms":     median(lagP99),
		"read_p50_ms":          ops.reads.P50,
		"read_p99_ms":          ops.reads.P99,
		"read_sustained_rps":   ops.reads.Sustained,
		"checkpoint_s":         median(ops.ckpts),
		"recovery_s":           ops.rec.Seconds,
		"success_rate":         r.successRate(),
	}
	var perPass []map[string]any
	for i, p := range untraced {
		perPass = append(perPass, map[string]any{
			"samples_per_s": rate[i], "cpu_ms_per_sample": cpuPer[i], "peak_heap_mib": p.peakMiB,
			"publishes": p.publishes, "fresh_lag_ms": summarize(p.lags),
		})
	}
	r.details["passes"] = perPass
	r.details["samples"] = len(fx.samples)
	r.details["fresh_lag_poll_interval_ms"] = ms(lagPollInterval)
	r.details["read_ladder"] = ops.reads.Steps
	r.details["checkpoints_s"] = ops.ckpts
	r.details["scenario_replays_s"] = ops.replays
	if !r.trace {
		return nil
	}

	exp, err := scrape(reg)
	if err != nil {
		return err
	}
	r.layer = streamLayerMetrics(exp, last.wall, fx.cfg.Shards, last.publishes, last.analyzed)
	r.layer["stream.submit_blocked_s"] = last.submitBlocked.Seconds()
	r.layer["stream.finish_s"] = last.finish.Seconds()
	epExp, err := scrape(epReg)
	if err != nil {
		return err
	}
	for k, v := range daemonLayerMetrics(epExp) {
		r.layer[k] = v
	}
	r.layer["persist.resume_replayed"] = float64(ops.rec.Replayed)
	r.layer["scenario.export_state_ms"] = ms(ops.export)
	r.layer["bench.generator_late_p99_ms"] = summarize(ops.reads.late).P99
	r.layer["bench.trace_overhead_pct"] = (safeDiv(ms(last.cpu), float64(last.analyzed))/cpuPer[0] - 1) * 100
	for k, v := range layerPass(layerInputs{cfg: fx.cfg, samples: fx.samples, kept: kept}, tr) {
		r.layer[k] = v
	}
	r.spanTotals(tr)
	r.writeTrace(tr)
	return nil
}
