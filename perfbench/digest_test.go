package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cryptomining/internal/model"
	"cryptomining/internal/stream"
)

func sampleResults() *stream.Results {
	return &stream.Results{
		Outcomes: map[string]*stream.SampleOutcome{
			"aa": {SHA256: "aa", Kept: true, IsMiner: true, Record: model.Record{SHA256: "aa", User: "4wallet"}},
		},
		Records:   []model.Record{{SHA256: "aa", User: "4wallet"}},
		Campaigns: []*model.Campaign{{ID: 1, Samples: []string{"aa"}, Wallets: []string{"4wallet"}, XMRMined: 1.5}},
		TotalXMR:  1.5,
	}
}

func TestResultsDigestSeesEveryChange(t *testing.T) {
	a, err := resultsDigest(sampleResults())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := resultsDigest(sampleResults())
	if a != b {
		t.Fatalf("equal results digest differently: %s vs %s", a, b)
	}
	changed := sampleResults()
	changed.Campaigns[0].XMRMined = 1.5000000001
	if c, _ := resultsDigest(changed); c == a {
		t.Error("a profit change in the last digits kept the digest")
	}
	changed = sampleResults()
	changed.Outcomes["aa"].Kept = false
	if c, _ := resultsDigest(changed); c == a {
		t.Error("a changed outcome kept the digest")
	}
}

// TestCorruptedDigestFailsTheRun checks both ways a digest is compared: a
// pass against another pass of the run, and the run against the digest an
// earlier run of the same seed recorded.
func TestCorruptedDigestFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	r := &runner{workload: "stream-feed", seed: 7, root: dir, details: map[string]any{}}
	good, _ := resultsDigest(sampleResults())
	checkDeterministic(r, fixture{}, []ingestPass{{digest: good}, {digest: good}})
	if !r.correct() || r.failed != 0 {
		t.Fatalf("identical digests failed the run: %+v", r.checks)
	}

	// A later run of the same seed and source tree whose output differs.
	r2 := &runner{workload: "stream-feed", seed: 7, root: dir, details: map[string]any{}}
	checkDeterministic(r2, fixture{}, []ingestPass{{digest: "corrupted"}})
	if r2.correct() || r2.failed != 1 {
		t.Fatalf("a digest differing from the recorded one passed: %+v", r2.checks)
	}

	r3 := &runner{workload: "stream-feed", seed: 8, root: dir, details: map[string]any{}}
	checkDeterministic(r3, fixture{}, []ingestPass{{digest: good}, {digest: "corrupted"}})
	if r3.correct() {
		t.Fatalf("passes with different digests passed: %+v", r3.checks)
	}
}

func TestCheckRecordedDigest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "digests")
	if err := checkRecordedDigest(dir, "k", "abc"); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if err := checkRecordedDigest(dir, "k", "abc"); err != nil {
		t.Fatalf("same digest: %v", err)
	}
	if err := checkRecordedDigest(dir, "k", "abd"); !errors.Is(err, errDigestMismatch) {
		t.Fatalf("different digest: %v, want errDigestMismatch", err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "k.sha256")); string(b) != "abc\n" {
		t.Fatalf("a mismatch overwrote the record: %q", b)
	}
}
