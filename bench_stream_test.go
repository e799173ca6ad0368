// Streaming-engine throughput benchmarks: batch (single-shard, the
// single-threaded reference) versus stream (one shard per core) over the same
// generated feed, at two corpus sizes. `go test -bench StreamIngest
// -benchtime 1x` prints samples/sec per variant; BENCH_stream.json records a
// baseline. The stream/batch ratio approximates the shard count up to the
// core budget of the host — on a single-core host it is ~1.0x by
// construction, so the >=2x speedup criterion is asserted on multi-core CI
// runners, not here.
package cryptomining

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/stream"
)

// streamFixtures caches generated universes per target corpus size.
var streamFixtures = map[int]*ecosim.Universe{}

// universeOfSize generates (once) an ecosystem whose corpus is close to n
// samples. DefaultConfig yields ~2170 samples at scale 1.0.
func universeOfSize(b *testing.B, n int) *ecosim.Universe {
	b.Helper()
	if u, ok := streamFixtures[n]; ok {
		return u
	}
	cfg := ecosim.DefaultConfig().Scale(float64(n) / 2170.0)
	u := ecosim.Generate(cfg)
	streamFixtures[n] = u
	b.Logf("generated feed: %d samples (target %d)", u.Corpus.Len(), n)
	return u
}

// runIngest pushes the whole corpus through a fresh engine with the given
// shard count and returns the analyzed-samples count.
func runIngest(b *testing.B, u *ecosim.Universe, shards int) int {
	b.Helper()
	cfg := core.NewFromUniverse(u).StreamConfig()
	cfg.Shards = shards
	eng := stream.New(cfg)
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, ok := u.Corpus.Get(h)
		if !ok {
			continue
		}
		if err := eng.Submit(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	res, err := eng.Finish(ctx)
	if err != nil {
		b.Fatal(err)
	}
	return len(res.Outcomes)
}

// BenchmarkStreamIngest compares the single-threaded batch pipeline against
// the sharded streaming engine at 1k and 10k samples.
func BenchmarkStreamIngest(b *testing.B) {
	shards := runtime.GOMAXPROCS(0)
	for _, size := range []int{1000, 10000} {
		for _, variant := range []struct {
			name   string
			shards int
		}{
			{"batch", 1},
			{"stream", shards},
		} {
			b.Run(fmt.Sprintf("%s-%d", variant.name, size), func(b *testing.B) {
				u := universeOfSize(b, size)
				b.ResetTimer()
				var analyzed int
				for i := 0; i < b.N; i++ {
					analyzed = runIngest(b, u, variant.shards)
				}
				b.StopTimer()
				perSec := float64(analyzed) * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(perSec, "samples/sec")
				b.ReportMetric(float64(variant.shards), "shards")
			})
		}
	}
}
