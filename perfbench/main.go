// Command perfbench is the repository's pipeline benchmark. It runs one
// named workload against the real stream, persist, api and scenario
// packages, entirely through their public functions, checks every output,
// and prints every metric by name with its unit. The last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end catalogue; with -trace 1 a
// separate traced run reports the per-layer catalogue. See README.md for
// the workloads, metric definitions and how the layers move the end-to-end
// figures. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runner) error{
	"paper-corpus":  runPaperCorpus,
	"stream-feed":   runStreamFeed,
	"serve-durable": runServeDurable,
}

// check is one output check and its verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runner carries one benchmark run's options and accounting.
type runner struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// scratch holds the run's data directories; removed at exit.
	scratch string
	runID   string

	attempted, failed int
	checks            []check
	notes             []string
	e2e, layer        map[string]float64
	details           map[string]any
}

// op counts one attempted operation and whether it failed.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err.Error())
	}
}

// check counts one output check. A failed check is a failed operation and
// makes the run incorrect.
func (r *runner) check(name string, err error) {
	r.attempted++
	c := check{Name: name, OK: err == nil}
	if err != nil {
		r.failed++
		c.Detail = err.Error()
	}
	r.checks = append(r.checks, c)
}

func (r *runner) note(s string) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, s)
	}
}

func (r *runner) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: paper-corpus, stream-feed or serve-durable")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "how long the timed region measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &runner{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root,
		runID: fmt.Sprintf("%s-%d-%d", *workload, *seed, time.Now().UnixNano()),
		e2e:   map[string]float64{}, layer: map[string]float64{}, details: map[string]any{},
	}
	r.scratch = filepath.Join(root, ".bench_build", "runs", r.runID)
	defer os.RemoveAll(r.scratch)

	host := collectHost(root)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v on %d CPUs (%s), %s\n",
		r.workload, r.seed, r.seconds, r.trace, host.NumCPU, host.CPUModel, host.GoVersion)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}

	specs, values := endToEnd, r.e2e
	if r.trace {
		specs, values = perLayer, r.layer
		for _, m := range reportedEndToEnd {
			values[m.Name] = r.e2e[m.Name]
		}
	}
	metrics, missing := pick(specs, values)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not produce %v\n", r.workload, missing)
		return 1
	}
	report := map[string]any{
		"host":   host,
		"run":    runBlock{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace, Shards: runtime.GOMAXPROCS(0), RunID: r.runID},
		"checks": r.checks, "notes": r.notes, "details": r.details,
		"end_to_end": r.e2e, "per_layer": r.layer,
	}
	printTable(specs, metrics)
	if err := writeReport(filepath.Join(root, ".bench_build", "results", r.runID+".json"), report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	line, err := json.Marshal(report)
	if err == nil {
		fmt.Println(string(line))
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, c := range r.checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s: %s\n", c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

// printTable prints the metrics by name with their units, for people.
func printTable(specs []metricSpec, metrics map[string]metricValue) {
	for _, s := range specs {
		m := metrics[s.Name]
		fmt.Printf("  %-40s %14s %s\n", s.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
}

func writeReport(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// successRate is the complement of the error rate: operations and output
// checks that succeeded over those attempted.
func (r *runner) successRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 1 - float64(r.failed)/float64(r.attempted)
}

// writeTrace stores the run's spans next to its report.
func (r *runner) writeTrace(tr *tracer) {
	if tr == nil {
		return
	}
	path := filepath.Join(r.root, ".bench_build", "traces", r.runID+".jsonl")
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	r.details["trace_file"] = path
}

// spanTotals adds per-name span totals (wall and self seconds) to details.
func (r *runner) spanTotals(tr *tracer) {
	spans := tr.Spans()
	total, self := sumByName(spans, false), sumByName(spans, true)
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]map[string]float64{}
	for _, n := range names {
		out[n] = map[string]float64{"total_s": total[n].Seconds(), "self_s": self[n].Seconds()}
	}
	r.details["spans"] = out
}
