package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one run
// share RunID; Parent is 0 for a root span.
type Span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	RunID  string    `json:"run_id"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	runID string
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Now()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, Span{ID: id, Parent: parent, RunID: t.runID, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans.
func (t *tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Overlapping children (calls
// made concurrently under one parent) are merged before subtracting, and
// child time outside the parent's interval is ignored.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 {
			cur = v
			continue
		}
		if !v.a.After(cur.b) {
			if v.b.After(cur.b) {
				cur.b = v.b
			}
			continue
		}
		total += cur.b.Sub(cur.a)
		cur = v
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// sumByName totals span durations (self time when self is set) per name.
func sumByName(spans []Span, self bool) map[string]time.Duration {
	st := map[int64]time.Duration{}
	if self {
		st = selfTimes(spans)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		d := s.Duration()
		if self {
			d = st[s.ID]
		}
		out[s.Name] += d
	}
	return out
}
