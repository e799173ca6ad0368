package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the metrics
// this program prints in step: same workloads, same names, units and
// directions, in the same order.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(got) != len(want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys %v, want %v", got, want)
		}
	}

	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	names := map[string]bool{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := func(n string) {
		if !name.MatchString(n) || names[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		names[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, the program has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		seen(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not one the program runs", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the program prints %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		seen(m.Name)
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %g out of range", m.Name, m.Unit, m.Bound)
		}
	}
	if s := f.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric %+v, want setup_s in s, lower", s)
	}

	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the program prints %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		seen(m.Name)
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, m, perLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q malformed", m.Name, m.Unit)
		}
	}
}
