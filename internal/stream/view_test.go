package stream_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/stream"
)

// TestViewCoversQuiescedEngine pins the snapshot ordering guarantee: once
// the counters report every submission handled, the published view reflects
// all of them (counters are bumped strictly after the view swap).
func TestViewCoversQuiescedEngine(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)

	if v := eng.CurrentView(); v.Epoch != 0 || len(v.Campaigns) != 0 {
		t.Fatalf("fresh engine view: epoch %d, %d campaigns, want empty epoch 0", v.Epoch, len(v.Campaigns))
	}

	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))

	v := eng.CurrentView()
	if v.Epoch == 0 {
		t.Fatal("no view published after full ingestion")
	}
	for i := 1; i < len(v.Campaigns); i++ {
		if v.Campaigns[i].XMR > v.Campaigns[i-1].XMR {
			t.Fatalf("view not sorted by XMR at %d", i)
		}
	}
	for _, cv := range v.Campaigns {
		if _, ok := v.Details[cv.ID]; !ok {
			t.Fatalf("campaign %d listed but has no detail view", cv.ID)
		}
	}

	res, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	final := eng.CurrentView()
	if final.Epoch <= v.Epoch {
		t.Fatalf("finalize did not publish: epoch %d after %d", final.Epoch, v.Epoch)
	}
	if len(final.Campaigns) != len(res.Campaigns) {
		t.Fatalf("final view %d campaigns, results %d", len(final.Campaigns), len(res.Campaigns))
	}
}

// TestViewReadsDuringIngest hammers the lock-free read surface while the
// engine ingests, checking the invariants every published view must hold:
// epochs never go backwards, listings stay sorted, and details stay in sync
// with the listing. Run with -race this also proves the swap is sound.
func TestViewReadsDuringIngest(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := eng.CurrentView()
				if v.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", v.Epoch, lastEpoch)
					return
				}
				lastEpoch = v.Epoch
				for i := 1; i < len(v.Campaigns); i++ {
					if v.Campaigns[i].XMR > v.Campaigns[i-1].XMR {
						t.Errorf("epoch %d: listing unsorted at %d", v.Epoch, i)
						return
					}
				}
				for _, cv := range v.Campaigns {
					d, ok := v.Details[cv.ID]
					if !ok || d.ID != cv.ID || d.XMR != cv.XMR {
						t.Errorf("epoch %d: detail/listing mismatch for %d", v.Epoch, cv.ID)
						return
					}
				}
				// Exercise the filtered path too.
				f := stream.CampaignFilter{MinXMR: 0.001}
				for _, cv := range v.Campaigns {
					if f.Matches(cv) != (cv.XMR >= f.MinXMR) {
						t.Errorf("epoch %d: filter mismatch for %d", v.Epoch, cv.ID)
						return
					}
				}
			}
		}()
	}

	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))
	close(stop)
	wg.Wait()
	if _, err := eng.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReadsDoNotBlockOnCollectorMutex pins the zero-mutex guarantee at the
// engine level: with the collector mutex held, every read-tier method
// returns promptly.
func TestReadsDoNotBlockOnCollectorMutex(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	eng := stream.New(core.NewFromUniverse(u).StreamConfig())
	ctx := context.Background()
	eng.Start(ctx)
	for _, h := range u.Corpus.Hashes() {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, eng, int64(u.Corpus.Len()))

	release := eng.HoldCollectorLock()
	defer release()

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Stats()
		if v := eng.CurrentView(); len(v.Campaigns) > 0 {
			eng.CampaignTimeline(v.Campaigns[0].ID, stream.TimeseriesQuery{})
		}
		eng.Timeseries(stream.TimeseriesQuery{})
		_, cancel := eng.Subscribe(1)
		cancel()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read-tier methods blocked on the held collector mutex")
	}
}
