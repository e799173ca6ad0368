package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"cryptomining/internal/stream"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and returns the live heap it measured.
// Readings taken while a concurrent mark runs count everything allocated
// during the mark as live, so they swing with GC timing; a reading after a
// forced collection measures only what the program retains.
func liveHeapMiB() float64 {
	// Two cycles: objects allocated while the first one marked count as
	// live in it; the second measures them only if they are still reachable.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// lagPoller samples how many submissions the engine has made visible
// (Stats().Analyzed+Duplicates, bumped only after the view swap) at a fixed
// interval, so the time the k-th submission became visible can be read off
// afterwards.
type lagPoller struct {
	eng  *stream.Engine
	base int64
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	times []time.Time
	count []int64
}

// lagPollInterval is the resolution of every fresh_lag figure.
const lagPollInterval = time.Millisecond

func startLagPoller(eng *stream.Engine) *lagPoller {
	st := eng.Stats()
	p := &lagPoller{eng: eng, base: st.Analyzed + st.Duplicates, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(lagPollInterval)
		defer t.Stop()
		last := p.base
		poll := func(now time.Time) {
			st := p.eng.Stats()
			if c := st.Analyzed + st.Duplicates; c > last {
				last = c
				p.mu.Lock()
				p.times = append(p.times, now)
				p.count = append(p.count, c-p.base)
				p.mu.Unlock()
			}
		}
		for {
			select {
			case <-p.stop:
				poll(time.Now())
				return
			case <-t.C:
				poll(time.Now())
			}
		}
	}()
	return p
}

// Stop takes a last reading and ends polling.
func (p *lagPoller) Stop() {
	close(p.stop)
	<-p.done
}

// lags returns, for each k with a due time, the milliseconds from dues[k]
// until the poll that first saw at least k+1 submissions visible. Entries
// never seen visible are skipped and counted in missing.
func (p *lagPoller) lags(dues []time.Time) (lag []float64, missing int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return visibleLags(dues, p.times, p.count)
}

func visibleLags(dues, times []time.Time, count []int64) (lag []float64, missing int) {
	for k, due := range dues {
		i := sort.Search(len(count), func(i int) bool { return count[i] >= int64(k+1) })
		if i == len(count) {
			missing++
			continue
		}
		d := times[i].Sub(due)
		if d < 0 {
			d = 0
		}
		lag = append(lag, ms(d))
	}
	return lag, missing
}
