package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"rotary/internal/faults"
	"rotary/internal/invariants"
	"rotary/internal/sim"
)

// startTestRouter boots a sharded daemon with test-speed supervision
// defaults and tears it down with the test.
func startTestRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.Build == nil {
		cfg.Build = testShardBuilder
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = 25 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := r.Serve(); err != nil {
			t.Errorf("router Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		r.Close()
		<-done
	})
	<-r.Ready()
	return r
}

// waitShardState polls one shard's supervision state until it reaches
// want or the deadline passes.
func waitShardState(t *testing.T, r *Router, shard int, want ShardState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		got, err := r.ShardState(shard)
		if err != nil {
			t.Fatalf("ShardState(%d): %v", shard, err)
		}
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d stuck in %v, want %v within %v", shard, got, want, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitShardRestarted polls until the shard has completed at least one
// supervised restart and is running again.
func waitShardRestarted(t *testing.T, r *Router, shard int, within time.Duration) {
	t.Helper()
	h := r.shards[shard]
	deadline := time.Now().Add(within)
	for {
		h.mu.Lock()
		restarts, state := h.restarts, h.state
		h.mu.Unlock()
		if restarts > 0 && state == ShardRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d not restarted within %v (restarts=%d state=%v)", shard, within, restarts, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shardChaosPlan draws a seeded multi-shard workload — eight feasible
// jobs plus one infeasible job that must expire in every run — and
// optionally merges in the seed's deterministic shard-kill point. The
// feasible deadlines carry slack well beyond the modeled recovery cost:
// status equality across a crash is only defined for jobs whose control
// outcome does not land within the resume penalty of their deadline.
func shardChaosPlan(seed uint64, withKill bool) []chaosEvent {
	rng := sim.NewRand(seed ^ 0x54a3d)
	queries := []string{"q1", "q3", "q5", "q6"}
	var evs []chaosEvent
	for i := 0; i < 8; i++ {
		evs = append(evs, chaosEvent{
			at:   rng.Range(0, 280),
			kind: "submit",
			id:   fmt.Sprintf("s%d-%d", seed, i),
			stmt: fmt.Sprintf("%s ACC MIN %.0f%% WITHIN 2000 SECONDS", queries[rng.IntN(len(queries))], rng.Range(50, 70)),
		})
	}
	evs = append(evs, chaosEvent{
		at:   rng.Range(0, 280),
		kind: "submit",
		id:   fmt.Sprintf("stight-%d", seed),
		stmt: "q1 ACC MIN 99% WITHIN 3 SECONDS",
	})
	if withKill {
		evs = append(evs, chaosEvent{at: faults.NewCrashSchedule(seed, 300, 1).Points()[0], kind: "kill"})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// TestShardChaosKillOne is the multi-shard chaos suite: for each seed, a
// control run (no kills) and a chaos run (the seed's victim shard is
// SIGKILLed at the seed's crash point and supervised back to life)
// execute the same workload on 3 shards. Fault isolation demands the
// surviving shards never notice: their traces must be bit-identical to
// the control run's. The killed shard's jobs must reach the control
// run's terminal statuses after the journal-replaying restart.
func TestShardChaosKillOne(t *testing.T) {
	const shards = 3
	run := func(t *testing.T, seed uint64, withKill bool) (map[string]string, []string) {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket: filepath.Join(base, "r.sock"),
			Shards: shards,
			Dir:    filepath.Join(base, "state"),
			Pace:   0,
		})
		victim := faults.VictimShards(seed, 1, shards)[0]
		c := dial(t, r.cfg.Socket)
		c, ids := drive(t, c, shardChaosPlan(seed, withKill), func(float64) *client {
			if err := r.KillShard(victim); err != nil {
				t.Fatalf("KillShard(%d): %v", victim, err)
			}
			// The supervisor must notice the corpse, replay the journal, and
			// catch the clock up — unattended. Wait on the restart counter,
			// not the state: the state still reads Running until the next
			// probe finds the corpse.
			waitShardRestarted(t, r, victim, 20*time.Second)
			return c
		})
		statuses, _ := sweep(t, c, ids, 3000, 1)
		traces := make([]string, shards)
		for i := range traces {
			tr := c.call(t, Message{Op: "trace-tail", Shard: i, N: 1 << 20})
			if !tr.OK {
				t.Fatalf("trace-tail shard %d: %+v", i, tr)
			}
			traces[i] = tr.Report
		}
		// ROTARY_CHAOS_ARTIFACTS names a directory to dump each run's
		// per-shard traces into; CI uploads it when a seed fails so the
		// control/chaos divergence can be diffed offline.
		if dir := os.Getenv("ROTARY_CHAOS_ARTIFACTS"); dir != "" {
			label := "control"
			if withKill {
				label = "chaos"
			}
			for i, trace := range traces {
				name := fmt.Sprintf("seed%d-%s-shard%d.trace", seed, label, i)
				if err := os.WriteFile(filepath.Join(dir, name), []byte(trace), 0o644); err != nil {
					t.Logf("trace artifact %s: %v", name, err)
				}
			}
		}
		if withKill {
			sh := c.call(t, Message{Op: "shards"})
			if !sh.OK || len(sh.Shards) != shards {
				t.Fatalf("shards report: %+v", sh)
			}
			for _, info := range sh.Shards {
				if info.State != "running" {
					t.Fatalf("shard %d ended the chaos run %s", info.Index, info.State)
				}
				if info.Index == victim && info.Restarts == 0 {
					t.Fatalf("victim shard %d reports zero supervised restarts", victim)
				}
			}
		}
		c.drain(t)
		return statuses, traces
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			control, controlTraces := run(t, seed, false)
			chaos, chaosTraces := run(t, seed, true)
			if err := invariants.SameOutcomes(control, chaos); err != nil {
				t.Error(err)
			}
			if want := control[fmt.Sprintf("stight-%d", seed)]; want != "expired" {
				t.Errorf("infeasible job ended %q in control, want expired", want)
			}
			victim := faults.VictimShards(seed, 1, shards)[0]
			for i := range controlTraces {
				if i == victim {
					continue // the victim replays; only survivors must be undisturbed
				}
				if chaosTraces[i] != controlTraces[i] {
					t.Errorf("surviving shard %d's trace diverged under chaos:\n--- control ---\n%s\n--- chaos ---\n%s",
						i, controlTraces[i], chaosTraces[i])
				}
			}
			if controlTraces[victim] == "" {
				t.Logf("note: victim shard %d saw no trace events this seed", victim)
			}
		})
	}
}

// TestShardChaosMigration compares a run that live-migrates a job
// between shards mid-flight against a stay-put control: the migrated
// job (and every bystander) must reach the same terminal status, the
// checkpoint frame must leave the source shard's durable namespace, and
// status must follow the job to its new home.
func TestShardChaosMigration(t *testing.T) {
	ids := []string{"mg-a", "mg-b", "mg-c", "mg-d"}
	run := func(t *testing.T, migrate bool) map[string]string {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket: filepath.Join(base, "r.sock"),
			Shards: 2,
			Dir:    filepath.Join(base, "state"),
			Pace:   0,
		})
		c := dial(t, r.cfg.Socket)
		// Deadlines far beyond the work: migration shifts contention (and
		// adds drain/resume costs), so status equality with the stay-put
		// control is only defined when the deadline is not the binding
		// constraint for any job.
		shardOf := map[string]int{}
		for _, id := range ids {
			resp := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 99% WITHIN 3600 SECONDS"})
			if !resp.OK {
				t.Fatalf("submit %s: %+v", id, resp)
			}
			shardOf[id] = resp.Shard
		}
		if resp := c.call(t, Message{Op: "advance", Seconds: 20}); !resp.OK {
			t.Fatalf("advance: %+v", resp)
		}
		if migrate {
			mover := ids[0]
			src, dst := shardOf[mover], 1-shardOf[mover]
			mr := c.call(t, Message{Op: "migrate", ID: mover, Shard: dst})
			if !mr.OK || mr.Code == CodeMigrateNoop || mr.Shard != dst {
				t.Fatalf("migrate %s %d→%d: %+v", mover, src, dst, mr)
			}
			// Status follows the job to its new shard.
			st := c.call(t, Message{Op: "status", ID: mover})
			if !st.OK || st.Shard != dst {
				t.Fatalf("status after migrate answered from shard %d: %+v", st.Shard, st)
			}
			// The source's durable namespace no longer holds the frame.
			if _, err := r.shards[src].Store().Export(mover); err == nil {
				t.Fatalf("source shard %d still holds %s's checkpoint after migration", src, mover)
			}
		}
		got, _ := sweep(t, c, ids, 8000, 1)
		c.drain(t)
		return got
	}
	if err := invariants.SameOutcomes(run(t, false), run(t, true)); err != nil {
		t.Errorf("migrated run against the stay-put control: %v", err)
	}
}
