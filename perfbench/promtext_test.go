package main

import (
	"math"
	"testing"

	"cryptomining/internal/obs"
)

func TestScrapeReadsWhatMetricsServes(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("op_seconds", "Op latency.", []float64{0.001, 0.01, 0.1}, obs.L("route", "/a"))
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05} {
		h.Observe(v)
	}
	reg.Histogram("op_seconds", "Op latency.", []float64{0.001, 0.01, 0.1}, obs.L("route", "/b")).Observe(0.5)
	reg.Counter("reqs_total", "Requests.", obs.L("method", "GET"), obs.L("status", "304")).Add(3)
	reg.Counter("reqs_total", "Requests.", obs.L("method", "GET"), obs.L("status", "200")).Add(1)
	reg.Counter("reqs_total", "Requests.", obs.L("method", "POST"), obs.L("status", "200")).Add(5)

	exp, err := scrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.sum("reqs_total", lbl("method", "GET")); got != 4 {
		t.Errorf("GET requests = %g, want 4", got)
	}
	if got := exp.sum("reqs_total", map[string]string{"method": "GET", "status": "304"}); got != 3 {
		t.Errorf("GET 304s = %g, want 3", got)
	}

	a := exp.hist("op_seconds", lbl("route", "/a"))
	if a.Count != 4 || math.Abs(a.Sum-0.0605) > 1e-12 {
		t.Errorf("route /a count %g sum %g, want 4 and 0.0605", a.Count, a.Sum)
	}
	// Rank 2 of 4 lies in the (0.001, 0.01] bucket holding ranks 2-3.
	if got := a.quantile(0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p50 = %g, want 0.0055", got)
	}
	all := exp.hist("op_seconds", nil)
	if all.Count != 5 {
		t.Errorf("merged count %g, want 5", all.Count)
	}
	// The top observation sits in +Inf: the highest finite bound is reported.
	if got := all.quantile(1); got != 0.1 {
		t.Errorf("p100 = %g, want the highest finite bound 0.1", got)
	}
	if got := (histogram{}).quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %g", got)
	}
}

func TestParseLabelsWithEscapes(t *testing.T) {
	s, err := parseSampleLine(`x_total{a="q\"uote",b="c,d"} 2`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Labels["a"] != `q"uote` || s.Labels["b"] != "c,d" || s.Value != 2 {
		t.Errorf("parsed %+v", s)
	}
	if _, err := parseSampleLine(`x_total{a="open} 2`); err == nil {
		t.Error("unterminated label value parsed")
	}
}
