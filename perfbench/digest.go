package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cryptomining/internal/core"
	"cryptomining/internal/model"
	"cryptomining/internal/stream"
)

// resultsView is the paper-facing projection of stream.Results that the
// output checks compare: every outcome, record, campaign (membership,
// enrichment and profit) and headline total. JSON encodes floats in their
// shortest exact form and map keys sorted, so equal results give equal bytes.
type resultsView struct {
	Outcomes         map[string]*stream.SampleOutcome
	Records          []model.Record
	Campaigns        []*model.Campaign
	Profits          []profitView
	Identifiers      int
	TotalXMR         float64
	TotalUSD         float64
	CirculationShare float64
	CountsBySource   map[model.Source]int
	CountsByResource map[model.AnalysisResource]int
	DonationsSkipped int
}

type profitView struct {
	Campaign  int
	XMR, USD  float64
	Payments  int
	ActiveAt  bool
	PoolsUsed int
}

// resultsDigest hashes the projection of res.
func resultsDigest(res *stream.Results) (string, error) {
	v := resultsView{
		Outcomes:         res.Outcomes,
		Records:          res.Records,
		Campaigns:        res.Campaigns,
		Identifiers:      res.Identifiers,
		TotalXMR:         res.TotalXMR,
		TotalUSD:         res.TotalUSD,
		CirculationShare: res.CirculationShare,
		CountsBySource:   res.CountsBySource,
		CountsByResource: res.CountsByResource,
	}
	if res.Aggregation != nil {
		v.DonationsSkipped = res.Aggregation.DonationWalletsSkipped
	}
	for _, p := range res.Profits {
		v.Profits = append(v.Profits, profitView{
			Campaign: p.Campaign.ID, XMR: p.XMR, USD: p.USD,
			Payments: len(p.Payments), ActiveAt: p.ActiveAt, PoolsUsed: p.PoolsUsed,
		})
	}
	return hashJSON(v)
}

// stateDigest hashes an exported engine state with its wall-clock uptime
// zeroed — the one field that legitimately differs between a daemon and
// its recovered successor.
func stateDigest(st *stream.EngineState) (string, error) {
	c := *st
	c.Counters.UptimeNanos = 0
	return hashJSON(&c)
}

func hashJSON(v any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tableVIII renders the paper's Table VIII from res.
func tableVIII(res *stream.Results) string {
	return core.TopCampaignsTable(res, 10).String()
}

// errDigestMismatch marks a run whose results differ from an earlier run of
// the same code and seed.
var errDigestMismatch = errors.New("results digest differs from an earlier run of the same seed")

// checkRecordedDigest compares digest with the one an earlier run of the
// same workload, seed and source tree recorded under dir, recording it when
// none exists yet.
func checkRecordedDigest(dir, key, digest string) error {
	path := filepath.Join(dir, key+".sha256")
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Errorf("%w: %s recorded %s, this run %s", errDigestMismatch, path, got, digest)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(digest+"\n"), 0o644)
	default:
		return err
	}
}
