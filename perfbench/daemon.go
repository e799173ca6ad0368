package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/obs"
	"cryptomining/internal/persist"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// daemon is an in-process streaming daemon wired from the public
// constructors the way cmd/streamd wires one: stream.New, persist.Open and
// Resume, then api.New served on a loopback listener.
type daemon struct {
	cfg    stream.Config
	dir    string
	eng    *stream.Engine
	store  *persist.Store
	srv    *http.Server
	served chan error
	cancel context.CancelFunc
	base   string
}

// startDaemon builds a daemon over dir. restore, when set, is loaded into
// the engine before Resume, so a finished ingest can be served and
// checkpointed like a daemon that produced it. reg may be nil.
func startDaemon(cfg stream.Config, dir string, restore *stream.EngineState, reg *obs.Registry) (*daemon, error) {
	cfg.Metrics = reg
	d := &daemon{cfg: cfg, dir: dir, eng: stream.New(cfg)}
	if restore != nil {
		if err := d.eng.RestoreState(restore); err != nil {
			return nil, fmt.Errorf("restore final state: %w", err)
		}
	}
	var opts []persist.Option
	if reg != nil {
		opts = append(opts, persist.WithMetrics(reg))
	}
	st, err := persist.Open(dir, opts...)
	if err != nil {
		return nil, fmt.Errorf("persist.Open: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := st.Resume(ctx, d.eng); err != nil {
		cancel()
		st.Close()
		return nil, fmt.Errorf("persist.Resume: %w", err)
	}
	d.store, d.cancel = st, cancel
	apiCfg := api.Config{
		Engine:  d.eng,
		Submit:  st.Submit,
		Metrics: reg,
		Checkpoint: func() (apiv1.Checkpoint, error) {
			info, err := st.Checkpoint()
			if err != nil {
				return apiv1.Checkpoint{}, err
			}
			return apiv1.Checkpoint{Path: info.Path, Bytes: info.Bytes, Logged: info.Logged, Processed: info.Processed}, nil
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: api.New(apiCfg).Handler(), ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// client returns an SDK client holding at most one connection to the
// daemon, so each generator role is exactly one connection.
func (d *daemon) client() *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	cl, err := client.New(d.base, client.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		panic(err) // d.base is always a well-formed loopback URL
	}
	return cl
}

// stop shuts the daemon down the way cmd/streamd does on SIGTERM: a parting
// checkpoint, then the listener. It returns the engine state exported just
// before the stop.
func (d *daemon) stop() (*stream.EngineState, error) {
	var errs []error
	if _, err := d.store.Checkpoint(); err != nil {
		errs = append(errs, fmt.Errorf("parting checkpoint: %w", err))
	}
	st := d.eng.ExportState()
	errs = append(errs, d.close())
	return st, errors.Join(errs...)
}

// close releases the listener, engine and store without checkpointing.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var errs []error
	if err := d.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("http serve: %w", err))
	}
	d.cancel()
	if err := d.store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("persist close: %w", err))
	}
	return errors.Join(errs...)
}

// recovery is the outcome of reopening a stopped daemon's directory.
type recovery struct {
	Seconds  float64
	Replayed int
	// Stats are the recovered engine's counters once every logged
	// submission is visible again.
	Stats stream.Stats
	// State is the recovered engine's export, when asked for.
	State *stream.EngineState
}

// recoverDir times persist.Open on dir until Resume returns a started
// engine, then waits until visible submissions are visible and reads the
// recovered counters and, with export, the recovered state. The recovered
// engine is then shut down without a checkpoint, so dir can be recovered
// again.
func recoverDir(cfg stream.Config, dir string, visible int64, export bool, tr *tracer) (recovery, error) {
	cfg.Metrics = nil
	_, end := tr.begin("persist.Open+Resume", 0)
	t0 := time.Now()
	st, err := persist.Open(dir)
	if err != nil {
		end()
		return recovery{}, fmt.Errorf("recover: persist.Open: %w", err)
	}
	defer st.Close()
	eng := stream.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	info, err := st.Resume(ctx, eng)
	secs := time.Since(t0).Seconds()
	end()
	if err != nil {
		return recovery{}, fmt.Errorf("recover: persist.Resume: %w", err)
	}
	if err := waitVisible(eng, visible, time.Minute); err != nil {
		return recovery{}, fmt.Errorf("recover: %w", err)
	}
	rec := recovery{Seconds: secs, Replayed: info.Replayed, Stats: eng.Stats()}
	if export {
		rec.State = eng.ExportState()
	}
	return rec, nil
}

// waitVisible blocks until the engine has made n submissions visible.
func waitVisible(eng *stream.Engine, n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		v := visibleCount(eng)
		if v >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d submissions visible after %v", v, n, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// visibleCount is how many submissions the engine has made visible to the
// read tier: Analyzed and Duplicates are bumped only after the view swap.
func visibleCount(eng *stream.Engine) int64 {
	st := eng.Stats()
	return st.Analyzed + st.Duplicates
}

// tempDir makes a fresh directory under the run's scratch area.
func tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, pattern)
}
