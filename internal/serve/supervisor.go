// Shard supervisor: the watchdog that turns a shard crash into a
// bounded outage instead of a dead daemon. One goroutine probes every
// shard's health op on a wall-clock cadence; a probe failure (or the
// shard's serve loop exiting) marks it down, and downed shards are
// restarted with capped exponential backoff by reopening their journal —
// replaying every fsynced transition — and catching their virtual clock
// up to the router's advance horizon. Probes are deliberately
// trace-neutral: the health op reads state without mutating the engine
// or emitting trace events, so supervised runs stay bit-identical to
// unsupervised ones on the shards that never crash.
package serve

import (
	"errors"
	"fmt"
	"time"
)

// supervise is the supervisor loop, started by Serve and stopped by
// Drain/Close.
func (r *Router) supervise() {
	defer close(r.supDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.supStop:
			return
		case <-t.C:
		}
		for _, h := range r.shards {
			select {
			case <-r.supStop:
				return
			default:
			}
			r.checkShard(h)
		}
	}
}

// checkShard advances one shard's supervision state machine:
//
//	Running    → probe; a dead serve loop or failed probe marks it Down
//	Down       → once the backoff expires, attempt a restart
//	Retired    → final; never probed, never restarted
//
// Starting/Restarting are transient states owned by the goroutine
// performing the start.
func (r *Router) checkShard(h *shardHandle) {
	h.mu.Lock()
	state, srv, retryAt := h.state, h.srv, h.retryAt
	h.mu.Unlock()
	switch state {
	case ShardRunning:
		// A driver that exited — crashed, killed, or drained behind the
		// router's back — answers draining: the shard is down.
		resp := srv.dispatch(Message{Op: "health"})
		if resp.Code == CodeDraining {
			r.met.probeFailures[h.index].Inc()
			r.markDown(h, errors.New("serve loop exited"))
			return
		}
		// "journal-failed" means the shard exhausted its self-heal budget
		// against a degraded journal: in-process healing lost, so escalate
		// to the restart path — Kill releases the wedged file handles and
		// the reopen replays the segment chain's valid prefix. A shard
		// still merely "journal-degraded" is left alone; its own prober is
		// the cheaper first responder.
		if resp.Status == "journal-failed" {
			r.met.probeFailures[h.index].Inc()
			srv.Kill()
			r.markDown(h, fmt.Errorf("journal failed beyond self-heal: %s", resp.Error))
			return
		}
		if resp.OK { // not an overloaded refusal
			h.mu.Lock()
			h.lastEpoch = resp.ServerEpoch
			h.mu.Unlock()
		}
	case ShardDown:
		if time.Now().Before(retryAt) {
			return
		}
		r.restartShard(h)
	}
}

// markDown transitions a shard to Down and schedules its first restart
// attempt. Idempotent for already-down or retired shards.
func (r *Router) markDown(h *shardHandle, cause error) {
	h.mu.Lock()
	if h.state == ShardDown || h.state == ShardRetired {
		h.mu.Unlock()
		return
	}
	h.state = ShardDown
	h.lastErr = cause
	if h.backoff <= 0 {
		h.backoff = r.cfg.RestartBackoff
	}
	h.retryAt = time.Now().Add(h.backoff)
	h.mu.Unlock()
	r.met.shardUp[h.index].Set(0)
}

// restartShard attempts one supervised restart. Failure doubles the
// backoff (capped) and re-queues the shard; success is recorded by
// startShard itself.
func (r *Router) restartShard(h *shardHandle) {
	h.mu.Lock()
	h.state = ShardRestarting
	h.mu.Unlock()
	if err := r.startShard(h); err != nil {
		h.mu.Lock()
		h.backoff *= 2
		if h.backoff > r.cfg.MaxRestartBackoff {
			h.backoff = r.cfg.MaxRestartBackoff
		}
		h.state = ShardDown
		h.lastErr = err
		h.retryAt = time.Now().Add(h.backoff)
		h.mu.Unlock()
	}
}

// KillShard abruptly kills one shard — the in-process stand-in for
// `kill -9` of a shard worker, used by the multi-shard chaos suite. The
// shard's journal keeps exactly what each append already fsynced; the
// supervisor notices the corpse on its next probe and restarts it.
func (r *Router) KillShard(i int) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("serve: shard %d out of range [0,%d)", i, len(r.shards))
	}
	h := r.shards[i]
	h.mu.Lock()
	srv := h.srv
	h.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("serve: shard %d has no live server", i)
	}
	srv.Kill()
	return nil
}

// ShardState reports one shard's supervision state (tests and tooling).
func (r *Router) ShardState(i int) (ShardState, error) {
	if i < 0 || i >= len(r.shards) {
		return 0, fmt.Errorf("serve: shard %d out of range [0,%d)", i, len(r.shards))
	}
	return r.shards[i].State(), nil
}
