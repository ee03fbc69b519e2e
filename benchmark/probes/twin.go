package probes

import (
	"fmt"

	"rotary"
	"rotary/benchmark/driver"
	"rotary/internal/admission"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// The daemon's defaults the twin must repeat: cmd/rotary-serve's -sf,
// -seed, -aging and -watchdog-slack, and its 4096-event trace ring.
const (
	defaultSF            = 0.02
	defaultSeed          = 1
	defaultAgingRounds   = 8
	defaultWatchdogSlack = 4
	defaultTraceRing     = 4096
)

// Twin is the daemon rebuilt in this process from the constructors
// cmd/rotary-serve calls, with the disk layer and the rotary policy
// wrapped in span recorders. Whatever the subprocess does for a request,
// the twin does too; TestTwinFidelity and the replay fingerprint check
// keep that true.
type Twin struct {
	boot driver.Boot
	rec  *Recorder

	srv    *serve.Server
	router *serve.Router
	jl     *serve.Journal
	store  *core.CheckpointStore
	done   chan error
}

// NewTwin prepares a traced in-process daemon for the boot configuration.
func NewTwin(b driver.Boot, rec *Recorder) *Twin { return &Twin{boot: b, rec: rec} }

// buildStack is cmd/rotary-serve's per-server wiring: catalog, seeded
// history, rotary policy, unbounded slack-free admission, default
// executor configuration with the starvation guard and the watchdog.
func (t *Twin) buildStack(ds *tpch.Dataset, index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
	reg := obs.NewRegistry()
	cat := tpch.NewCatalog(ds, defaultSeed+uint64(index))
	repo := rotary.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		return nil, nil, nil, err
	}
	var sched core.AQPScheduler = rotary.NewRotaryAQP(rotary.NewAccuracyProgress(repo, 3))
	sched = tracedSched{AQPScheduler: sched, rec: t.rec}
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	cfg.Obs = reg
	cfg.Tracer = core.NewTracer(defaultTraceRing)
	cfg.Admission = admission.NewController(admission.Config{Policy: admission.Reject, Obs: reg})
	cfg.AgingRounds = defaultAgingRounds
	cfg.Store = store
	cfg.WatchdogSlack = defaultWatchdogSlack
	store.SetObs(reg)
	return core.NewAQPExecutor(cfg, sched, repo), cat, reg, nil
}

// Start implements driver.Daemon: everything the binary does between
// exec and listen happens here, so set-up and recovery time the same
// work in both.
func (t *Twin) Start() error {
	ds := tpch.Generate(defaultSF, defaultSeed)
	t.done = make(chan error, 1)
	if t.boot.Shards > 1 {
		r, err := serve.NewRouter(serve.RouterConfig{
			Socket: t.boot.Socket,
			Shards: t.boot.Shards,
			Dir:    t.boot.JournalDir,
			Pace:   t.boot.Pace,
			Build: func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
				return t.buildStack(ds, index, store)
			},
			DiskIO: func(int) diskio.IO { return NewTracedIO(t.rec) },
		})
		if err != nil {
			return err
		}
		t.router = r
		go func() { t.done <- r.Serve() }()
		return nil
	}
	jl, store, err := serve.OpenDurableIO(t.boot.JournalDir, NewTracedIO(t.rec))
	if err != nil {
		return err
	}
	exec, cat, reg, err := t.buildStack(ds, 0, store)
	if err != nil {
		jl.Close()
		store.Close()
		return err
	}
	srv, err := serve.New(serve.Config{Socket: t.boot.Socket, Pace: t.boot.Pace, Journal: jl, Obs: reg}, exec, cat)
	if err != nil {
		jl.Close()
		store.Close()
		return err
	}
	t.srv, t.jl, t.store = srv, jl, store
	go func() { t.done <- srv.Serve() }()
	return nil
}

// Kill implements driver.Daemon: no drain and no flush beyond what each
// append already fsynced, which is what SIGKILL leaves on disk.
func (t *Twin) Kill() error {
	switch {
	case t.router != nil:
		t.router.Close()
		t.router = nil
	case t.srv != nil:
		t.srv.Kill()
		t.store.Close()
		t.srv = nil
	default:
		return nil
	}
	<-t.done
	return nil
}

// Wait implements driver.Daemon for a drained daemon.
func (t *Twin) Wait() error {
	if t.router == nil && t.srv == nil {
		return nil
	}
	err := <-t.done
	if t.srv != nil {
		t.jl.Close()
		t.store.Close()
		if final := t.srv.Final(); !final.OK {
			err = fmt.Errorf("twin drain: %s", final.Error)
		}
	}
	t.router, t.srv = nil, nil
	return err
}
