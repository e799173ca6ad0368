package main

// metricSpec names one reported metric with its unit and direction.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is the catalogue of metrics a user of the system sees and a
// change is gated on. Every workload reports every one of them (see
// README.md for the definitions); BENCHMARK.json lists the same names and
// units with their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ingest_samples_per_s", "samples/s", "higher"},
	{"cpu_ms_per_sample", "ms", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"success_rate", "ratio", "higher"},
}

// reportedEndToEnd are end-to-end figures every run measures and reports,
// but whose run-to-run spread on the recording host (0.2 to 1.2 of the
// median over ten seeds; read_sustained_rps beside writes from 700 to 9100
// req/s, as one 50 ms stall fails a rung) leaves no room for a regression
// bound of at most a quarter. They are listed with the per-layer metrics,
// which carry no bound, rather than gated.
var reportedEndToEnd = []metricSpec{
	{"fresh_lag_p50_ms", "ms", "lower"},
	{"fresh_lag_p99_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"read_sustained_rps", "req/s", "higher"},
	{"scenario_replay_s", "s", "lower"},
	{"checkpoint_s", "s", "lower"},
	{"recovery_s", "s", "lower"},
}

// perLayer is the catalogue of the traced run's metrics: the reported
// end-to-end figures first, then the layers'.
var perLayer = append(append([]metricSpec(nil), reportedEndToEnd...), []metricSpec{
	{"stream.submit_blocked_s", "s", "lower"},
	{"stream.finish_s", "s", "lower"},
	{"stream.stage.sanity.busy_s", "s", "lower"},
	{"stream.stage.static.busy_s", "s", "lower"},
	{"stream.stage.sandbox.busy_s", "s", "lower"},
	{"stream.stage.enrich.busy_s", "s", "lower"},
	{"stream.stage.sanity.busy_share", "ratio", "lower"},
	{"stream.stage.static.busy_share", "ratio", "lower"},
	{"stream.stage.sandbox.busy_share", "ratio", "lower"},
	{"stream.stage.enrich.busy_share", "ratio", "lower"},
	{"stream.collector.hold_s", "s", "lower"},
	{"stream.collector.hold_share", "ratio", "lower"},
	{"stream.collector.hold_p99_ms", "ms", "lower"},
	{"stream.collector.publishes", "count", "lower"},
	{"stream.collector.samples_per_publish", "samples", "higher"},
	{"binfmt.hashes_us", "us", "lower"},
	{"binfmt.extract_strings_us", "us", "lower"},
	{"binfmt.scan_packer_us", "us", "lower"},
	{"entropy.shannon_us", "us", "lower"},
	{"wallet.extract_candidates_us", "us", "lower"},
	{"static.extract_endpoints_us", "us", "lower"},
	{"yara.match_us", "us", "lower"},
	{"static.analyze_us", "us", "lower"},
	{"static.analyze_other_us", "us", "lower"},
	{"sandbox.run_us", "us", "lower"},
	{"extract.extract_us", "us", "lower"},
	{"binfmt.alloc_kib_per_sample", "KiB", "lower"},
	{"entropy.alloc_kib_per_sample", "KiB", "lower"},
	{"wallet.alloc_kib_per_sample", "KiB", "lower"},
	{"yara.alloc_kib_per_sample", "KiB", "lower"},
	{"static.alloc_kib_per_sample", "KiB", "lower"},
	{"sandbox.alloc_kib_per_sample", "KiB", "lower"},
	{"extract.alloc_kib_per_sample", "KiB", "lower"},
	{"campaign.add_us", "us", "lower"},
	{"campaign.snapshot_ms", "ms", "lower"},
	{"campaign.rebuilds_per_snapshot", "count", "lower"},
	{"campaign.alloc_kib_per_sample", "KiB", "lower"},
	{"profit.analyze_campaign_us", "us", "lower"},
	{"profit.alloc_kib_per_campaign", "KiB", "lower"},
	{"persist.wal_append_us", "us", "lower"},
	{"persist.wal_fsync_ms", "ms", "lower"},
	{"persist.checkpoint_mib", "MiB", "lower"},
	{"persist.resume_replayed", "count", "lower"},
	{"api.route.campaigns.p99_ms", "ms", "lower"},
	{"api.route.campaign.p99_ms", "ms", "lower"},
	{"api.route.timeline.p99_ms", "ms", "lower"},
	{"api.route.timeseries.p99_ms", "ms", "lower"},
	{"api.route.stats.p99_ms", "ms", "lower"},
	{"api.samples_post_ms", "ms", "lower"},
	{"api.not_modified_ratio", "ratio", "higher"},
	{"api.response_kib_mean", "KiB", "lower"},
	{"scenario.export_state_ms", "ms", "lower"},
	{"bench.generator_late_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}...)

// metricValue is one reported value with its unit, as the result line
// carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the catalogue's metrics from values. A catalogue metric
// missing from values is an error in the benchmark itself.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, missing
}
