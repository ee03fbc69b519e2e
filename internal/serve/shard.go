// One shard of a sharded arbiter daemon: a full durable serving stack —
// private engine, executor, write-ahead journal, and checkpoint
// namespace — running as a Server in the router's process, plus the
// handle the router and supervisor share to manage it. The router calls
// the shard in-process; the shard also listens on its own Unix socket
// for direct access. Shards are isolation domains: a shard crash
// abandons only that shard's in-memory state, and its journal replays it
// back, exactly as the single-shard durable server recovers from a
// SIGKILL.
package serve

import (
	"fmt"
	"sync"
	"time"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
	"rotary/internal/tpch"
)

// ShardState is one shard's supervision state.
type ShardState int

const (
	// ShardStarting: the initial boot (or a supervised restart) is in
	// progress; the shard is not yet serving.
	ShardStarting ShardState = iota
	// ShardRunning: the shard answers health probes and accepts forwards.
	ShardRunning
	// ShardDown: the shard crashed or wedged; the supervisor will attempt
	// a journal-replaying restart once the backoff expires. Requests for
	// its jobs get typed shard-unavailable replies — never rerouted, since
	// the durable state lives in this shard's journal.
	ShardDown
	// ShardRestarting: a restart attempt is executing right now.
	ShardRestarting
	// ShardRetired: the shard was drained after its jobs migrated off; new
	// work reroutes around it permanently.
	ShardRetired
)

// String names the state for the shards report.
func (s ShardState) String() string {
	switch s {
	case ShardStarting:
		return "starting"
	case ShardRunning:
		return "running"
	case ShardDown:
		return "down"
	case ShardRestarting:
		return "restarting"
	case ShardRetired:
		return "retired"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// ShardBuilder constructs one shard's executor stack bound to a fresh
// engine and the shard's durable checkpoint store. It is called at boot
// and again on every supervised restart, so it must build an isolated
// stack each time (own engine, own tracer, own admission controller) and
// register metrics on a registry it returns — the router renders every
// shard's registry into one scrape under a shard label.
type ShardBuilder func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error)

// shardHandle is the router/supervisor view of one shard.
type shardHandle struct {
	index int
	dir   string

	mu        sync.Mutex
	state     ShardState
	srv       *Server
	store     *core.CheckpointStore
	restarts  int
	backoff   time.Duration
	retryAt   time.Time
	lastErr   error
	lastEpoch int
}

// State reads the supervision state.
func (h *shardHandle) State() ShardState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Store reads the shard's durable checkpoint store (refreshed on every
// restart; nil before the first successful start).
func (h *shardHandle) Store() *core.CheckpointStore {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.store
}

// startShard boots (or restarts) one shard: reopen the durable pair —
// replaying the journal — build a fresh executor stack on it, serve it,
// and, once it answers a health op, catch its virtual clock up to the
// router's advance horizon. Any leftover server from a previous
// incarnation is killed first so its journal file handle is released
// before the reopen; a stale shard socket left by a SIGKILL is reclaimed
// by the server's own dial-probe sweep, so one dead socket never aborts
// the whole daemon's startup.
func (r *Router) startShard(h *shardHandle) error {
	h.mu.Lock()
	if old := h.srv; old != nil {
		h.mu.Unlock()
		old.Kill()
		h.mu.Lock()
	}
	if old := h.store; old != nil {
		old.Close()
	}
	h.srv = nil
	h.mu.Unlock()

	var dio diskio.IO
	if r.cfg.DiskIO != nil {
		dio = r.cfg.DiskIO(h.index)
	}
	jl, store, err := OpenDurableIO(h.dir, dio)
	if err != nil {
		return fmt.Errorf("shard %d: %w", h.index, err)
	}
	exec, cat, reg, err := r.cfg.Build(h.index, store)
	if err != nil {
		jl.Close()
		store.Close()
		return fmt.Errorf("shard %d: build: %w", h.index, err)
	}
	srv, err := New(Config{
		Socket:          fmt.Sprintf("%s.shard%d", r.cfg.Socket, h.index),
		Pace:            r.cfg.Pace,
		Tick:            r.cfg.Tick,
		BatchRows:       r.cfg.BatchRows,
		IngressDepth:    r.cfg.IngressDepth,
		IngressBatch:    r.cfg.IngressBatch,
		Obs:             reg,
		Journal:         jl,
		HealProbeSecs:   r.cfg.HealProbeSecs,
		MaxHealFailures: r.cfg.MaxHealFailures,
	}, exec, cat)
	if err != nil {
		jl.Close()
		store.Close()
		return fmt.Errorf("shard %d: %w", h.index, err)
	}
	done := make(chan struct{})
	var serveErr error
	go func() {
		serveErr = srv.Serve()
		close(done)
	}()
	// The health op waits on the ingress ring until the driver starts, or
	// answers draining if Serve failed before starting it. Clock catch-up:
	// a restart rewinds the shard to its last journaled position; advance
	// it back to the furthest horizon the router has broadcast so it
	// rejoins its peers' timeline.
	resp := srv.dispatch(Message{Op: "health"})
	epoch := resp.ServerEpoch
	if target := r.virtualTargetGet(); resp.OK && target > resp.VirtualNow {
		resp = srv.dispatch(Message{Op: "advance", Seconds: target - resp.VirtualNow})
	}
	if !resp.OK {
		srv.Kill()
		<-done
		store.Close()
		if serveErr != nil {
			return fmt.Errorf("shard %d: %w", h.index, serveErr)
		}
		return fmt.Errorf("shard %d: readiness: %s", h.index, resp.Error)
	}

	h.mu.Lock()
	wasRestart := h.restarts > 0 || h.state == ShardRestarting || h.state == ShardDown
	h.srv = srv
	h.store = store
	h.lastEpoch = epoch
	h.state = ShardRunning
	h.backoff = 0
	h.lastErr = nil
	if wasRestart {
		h.restarts++
	}
	h.mu.Unlock()
	if wasRestart {
		r.met.restarts[h.index].Inc()
	}
	r.met.shardUp[h.index].Set(1)
	return nil
}
