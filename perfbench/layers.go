package main

import (
	"runtime"
	"strings"
	"time"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/campaign"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/entropy"
	"cryptomining/internal/exchange"
	"cryptomining/internal/extract"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/profit"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
	"cryptomining/internal/stream"
	"cryptomining/internal/wallet"
	"cryptomining/internal/yara"
)

// layerSampleCap bounds how many samples the per-sample analysis layers are
// timed on. The samples are spread evenly over the workload order; the
// static layers cost tens of milliseconds per packed sample, and a few
// hundred calls give stable means without stretching the traced run.
const layerSampleCap = 256

// aggBatch is how many Adds the campaign layer pass makes between
// Snapshots, mirroring a collector that publishes once per absorbed batch.
const aggBatch = 64

// minStringLength matches static.New's default.
const minStringLength = 6

// layerMeter times calls and the heap bytes they allocate, one span each.
type layerMeter struct {
	tr    *tracer
	ms    runtime.MemStats
	nanos map[string]time.Duration
	bytes map[string]uint64
	calls map[string]int
}

func newLayerMeter(tr *tracer) *layerMeter {
	return &layerMeter{tr: tr, nanos: map[string]time.Duration{}, bytes: map[string]uint64{}, calls: map[string]int{}}
}

// measure runs fn as one call of layer name. The memory statistics are read
// outside the timed interval, so their stop-the-world cost is not charged.
func (m *layerMeter) measure(name string, parent int64, fn func()) {
	runtime.ReadMemStats(&m.ms)
	before := m.ms.TotalAlloc
	_, end := m.tr.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	runtime.ReadMemStats(&m.ms)
	m.nanos[name] += d
	m.bytes[name] += m.ms.TotalAlloc - before
	m.calls[name]++
}

// meanUS is the mean microseconds per call of name.
func (m *layerMeter) meanUS(name string) float64 {
	if m.calls[name] == 0 {
		return 0
	}
	return float64(m.nanos[name]) / float64(m.calls[name]) / 1e3
}

// kibPer is name's allocated KiB divided by n.
func (m *layerMeter) kibPer(n int, names ...string) float64 {
	if n == 0 {
		return 0
	}
	var b uint64
	for _, name := range names {
		b += m.bytes[name]
	}
	return float64(b) / 1024 / float64(n)
}

// layerInputs is what the layer pass needs from a workload.
type layerInputs struct {
	cfg     stream.Config
	samples []*model.Sample // workload order
	kept    []model.Record  // the records the run kept
}

// evenSubset picks at most n items spread evenly over s.
func evenSubset[T any](s []T, n int) []T {
	if len(s) <= n {
		return s
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s[i*len(s)/n])
	}
	return out
}

// layerPass calls each analysis layer's public function per sample, in
// dataflow order, then replays the kept records through a fresh campaign
// aggregator and prices its campaigns. It returns the per-layer metrics.
func layerPass(in layerInputs, tr *tracer) map[string]float64 {
	m := newLayerMeter(tr)
	rules := yara.MinerRules()
	scanner := binfmt.NewScanner()
	analyzer := static.New()
	var resolver *dnssim.Resolver
	if in.cfg.Resolver != nil {
		resolver = in.cfg.Resolver
	} else {
		resolver = dnssim.NewResolver(dnssim.NewZone())
	}
	sb := sandbox.New(resolver)

	subset := evenSubset(in.samples, layerSampleCap)
	for _, s := range subset {
		content := s.Content
		parent, end := tr.begin("layer.sample", 0)
		var strs []string
		var sres static.Result
		var rep *sandbox.Report
		m.measure("binfmt.hashes", parent, func() { binfmt.Hashes(content) })
		m.measure("binfmt.extract_strings", parent, func() { strs = binfmt.ExtractStrings(content, minStringLength) })
		text := strings.Join(strs, "\n")
		m.measure("entropy.shannon", parent, func() { entropy.Shannon(content) })
		m.measure("wallet.extract_candidates", parent, func() { wallet.ExtractCandidates(text) })
		m.measure("static.extract_endpoints", parent, func() { static.ExtractEndpoints(text) })
		m.measure("yara.match", parent, func() { rules.Match(content) })
		m.measure("binfmt.scan_packer", parent, func() {
			scanner.DetectPacker(content)
			scanner.DetectCompression(content)
		})
		m.measure("static.analyze", parent, func() { sres = analyzer.Analyze(content) })
		m.measure("sandbox.run", parent, func() { rep = sb.Run(s.SHA256, content) })
		var av *model.AVReport
		if in.cfg.AV != nil {
			av = in.cfg.AV.Report(s.SHA256)
		}
		m.measure("extract.extract", parent, func() {
			extract.Extract(extract.Inputs{Sample: s, Static: &sres, Dynamic: rep, AVReport: av})
		})
		end()
	}

	out := map[string]float64{}
	for _, name := range []string{
		"binfmt.hashes", "binfmt.extract_strings", "binfmt.scan_packer", "entropy.shannon",
		"wallet.extract_candidates", "static.extract_endpoints", "yara.match",
		"static.analyze", "sandbox.run", "extract.extract",
	} {
		out[name+"_us"] = m.meanUS(name)
	}
	parts := 0.0
	for _, name := range []string{
		"binfmt.hashes", "binfmt.extract_strings", "binfmt.scan_packer", "entropy.shannon",
		"wallet.extract_candidates", "static.extract_endpoints", "yara.match",
	} {
		parts += m.meanUS(name)
	}
	out["static.analyze_other_us"] = out["static.analyze_us"] - parts
	n := len(subset)
	out["binfmt.alloc_kib_per_sample"] = m.kibPer(n, "binfmt.hashes", "binfmt.extract_strings", "binfmt.scan_packer")
	out["entropy.alloc_kib_per_sample"] = m.kibPer(n, "entropy.shannon")
	out["wallet.alloc_kib_per_sample"] = m.kibPer(n, "wallet.extract_candidates")
	out["yara.alloc_kib_per_sample"] = m.kibPer(n, "yara.match")
	out["static.alloc_kib_per_sample"] = m.kibPer(n, "static.analyze")
	out["sandbox.alloc_kib_per_sample"] = m.kibPer(n, "sandbox.run")
	out["extract.alloc_kib_per_sample"] = m.kibPer(n, "extract.extract")

	for k, v := range aggregatePass(in, m, tr) {
		out[k] = v
	}
	return out
}

// aggregatePass feeds the kept records, in workload order, to a fresh
// IncrementalAggregator with a Snapshot after every aggBatch Adds, then
// prices every campaign of the final snapshot through a CachedCollector.
func aggregatePass(in layerInputs, m *layerMeter, tr *tracer) map[string]float64 {
	cfg := in.cfg
	store := cfg.OSINT
	if store == nil {
		store = osint.NewDefaultStore()
	}
	var detector *dnssim.AliasDetector
	if cfg.Zone != nil {
		detector = dnssim.NewAliasDetector(cfg.Zone, cfg.Pools.DomainMap())
	}
	acfg := campaign.DefaultConfig(store, detector, cfg.Pools.DomainMap())
	acfg.AVLabels = map[string][]string{}
	agg := campaign.NewIncremental(acfg)

	kept := map[string]model.Record{}
	for _, r := range in.kept {
		kept[r.SHA256] = r
	}
	parent, end := tr.begin("layer.aggregate", 0)
	var adds, snaps, rebuilds int
	var last *campaign.Result
	snapshot := func() {
		before := agg.Rebuilds()
		m.measure("campaign.snapshot", parent, func() { last = agg.Snapshot() })
		rebuilds += agg.Rebuilds() - before
		snaps++
	}
	for _, s := range in.samples {
		rec, ok := kept[s.SHA256]
		if !ok {
			continue
		}
		if cfg.AV != nil {
			var labels []string
			for _, v := range cfg.AV.Report(s.SHA256).Verdicts {
				if v.Detected && v.Label != "" {
					labels = append(labels, v.Label)
				}
			}
			agg.SetAVLabels(s.SHA256, labels)
		}
		input := campaign.Input{Record: rec, Content: s.Content}
		m.measure("campaign.add", parent, func() { agg.Add(input) })
		adds++
		if adds%aggBatch == 0 {
			snapshot()
		}
	}
	if adds%aggBatch != 0 || snaps == 0 {
		snapshot()
	}
	end()

	rates := cfg.Rates
	if rates == nil {
		rates = exchange.NewDefaultHistory()
	}
	cc := profit.NewCachedCollector(profit.NewCollector(cfg.Pools, rates, cfg.QueryTime))
	parent, end = tr.begin("layer.price", 0)
	for _, c := range last.Campaigns {
		m.measure("profit.analyze_campaign", parent, func() { profit.AnalyzeCampaignWith(c, cc.CollectWallet, cfg.QueryTime) })
	}
	end()

	out := map[string]float64{
		"campaign.add_us":                m.meanUS("campaign.add"),
		"campaign.snapshot_ms":           m.meanUS("campaign.snapshot") / 1e3,
		"campaign.alloc_kib_per_sample":  m.kibPer(adds, "campaign.add", "campaign.snapshot"),
		"profit.analyze_campaign_us":     m.meanUS("profit.analyze_campaign"),
		"profit.alloc_kib_per_campaign":  m.kibPer(len(last.Campaigns), "profit.analyze_campaign"),
		"campaign.rebuilds_per_snapshot": 0,
		"campaign.snapshots":             float64(snaps),
		"campaign.campaigns":             float64(len(last.Campaigns)),
	}
	if snaps > 0 {
		out["campaign.rebuilds_per_snapshot"] = float64(rebuilds) / float64(snaps)
	}
	return out
}
