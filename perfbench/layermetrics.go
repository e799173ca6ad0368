package main

import (
	"time"

	"cryptomining/internal/stream"
)

// lbl is a one-label filter.
func lbl(k, v string) map[string]string { return map[string]string{k: v} }

// streamLayerMetrics derives the stream layer's figures from a scrape of
// the engine's registry taken at the end of the traced ingest.
func streamLayerMetrics(exp exposition, wall time.Duration, shards int, publishes uint64, analyzed int64) map[string]float64 {
	out := map[string]float64{}
	capacity := wall.Seconds() * float64(shards)
	for _, st := range stream.StageNames {
		busy := exp.hist("stream_stage_duration_seconds", lbl("stage", st)).Sum
		out["stream.stage."+st+".busy_s"] = busy
		out["stream.stage."+st+".busy_share"] = safeDiv(busy, capacity)
	}
	hold := exp.hist("stream_collector_lock_hold_seconds", nil)
	out["stream.collector.hold_s"] = hold.Sum
	out["stream.collector.hold_share"] = safeDiv(hold.Sum, wall.Seconds())
	out["stream.collector.hold_p99_ms"] = hold.quantile(0.99) * 1e3
	out["stream.collector.publishes"] = float64(publishes)
	out["stream.collector.samples_per_publish"] = safeDiv(float64(analyzed), float64(publishes))
	return out
}

// apiRoutes maps the per-route metric names to the api route patterns.
var apiRoutes = map[string]string{
	"campaigns":  "/api/v1/campaigns",
	"campaign":   "/api/v1/campaigns/{id}",
	"timeline":   "/api/v1/campaigns/{id}/timeline",
	"timeseries": "/api/v1/timeseries",
	"stats":      "/api/v1/stats",
}

// daemonLayerMetrics derives the persist and api figures from a scrape of
// a daemon's registry. Instruments a workload never exercised read 0.
func daemonLayerMetrics(exp exposition) map[string]float64 {
	out := map[string]float64{
		"persist.wal_append_us":  exp.hist("persist_wal_append_seconds", nil).mean() * 1e6,
		"persist.wal_fsync_ms":   exp.hist("persist_wal_fsync_seconds", nil).mean() * 1e3,
		"persist.checkpoint_mib": exp.hist("persist_checkpoint_bytes", nil).mean() / (1 << 20),
		"api.samples_post_ms":    exp.hist("api_request_duration_seconds", lbl("route", "/api/v1/samples")).mean() * 1e3,
	}
	var bytes, count float64
	for name, route := range apiRoutes {
		out["api.route."+name+".p99_ms"] = exp.hist("api_request_duration_seconds", lbl("route", route)).quantile(0.99) * 1e3
		h := exp.hist("api_response_bytes", lbl("route", route))
		bytes += h.Sum
		count += h.Count
	}
	out["api.response_kib_mean"] = safeDiv(bytes, count) / 1024
	gets := exp.sum("api_requests_total", lbl("method", "GET"))
	out["api.not_modified_ratio"] = safeDiv(exp.sum("api_requests_total", map[string]string{"method": "GET", "status": "304"}), gets)
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
