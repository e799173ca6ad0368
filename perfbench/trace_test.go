package main

import (
	"testing"
	"time"
)

func span(id, parent int64, name string, from, to int) Span {
	return Span{ID: id, Parent: parent, Name: name,
		Start: epoch.Add(time.Duration(from) * time.Millisecond), End: epoch.Add(time.Duration(to) * time.Millisecond)}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "ingest", 0, 100),
		span(2, 1, "submit", 10, 30),
		span(3, 1, "submit", 20, 40),  // overlaps span 2: covered once
		span(4, 1, "finish", 90, 120), // runs past its parent: clipped at 100
		span(5, 2, "inner", 12, 18),   // grandchild: only span 2 loses it
		span(6, 0, "orphan", 0, 5),
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100*time.Millisecond - 30*time.Millisecond - 10*time.Millisecond,
		2: 20*time.Millisecond - 6*time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 6 * time.Millisecond,
		6: 5 * time.Millisecond,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}

	total, self := sumByName(spans, false), sumByName(spans, true)
	if total["submit"] != 40*time.Millisecond || self["submit"] != 34*time.Millisecond {
		t.Errorf("submit total %v self %v, want 40ms and 34ms", total["submit"], self["submit"])
	}
}

func TestTracerRecordsParentsAndNilIsANoop(t *testing.T) {
	var off *tracer
	if id, end := off.begin("x", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	} else {
		end()
	}
	if off.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := newTracer("run-1")
	parent, endParent := tr.begin("ingest", 0)
	_, endChild := tr.begin("stream.Submit", parent)
	endChild()
	endParent()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	child, root := spans[0], spans[1]
	if child.Parent != root.ID || root.Parent != 0 || child.RunID != "run-1" {
		t.Errorf("spans %+v, want the child linked to the root under run-1", spans)
	}
	if child.Start.Before(root.Start) || child.End.After(root.End) {
		t.Errorf("child %v-%v not inside parent %v-%v", child.Start, child.End, root.Start, root.End)
	}
}
