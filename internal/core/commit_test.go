package core_test

import (
	"bytes"
	"math"
	"testing"

	"rotary/internal/aqp"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/faults"
	"rotary/internal/tpch"
)

// countingQuery counts the batches the executor actually runs and, while
// runaway is set, prices every epoch a million times over — the degenerate
// cost model the watchdog exists to cut short.
type countingQuery struct {
	aqp.OnlineQuery
	batches int
	runaway bool
}

func (q *countingQuery) ProcessBatch(batchRows, threads int) (int, float64) {
	q.batches++
	return q.OnlineQuery.ProcessBatch(batchRows, threads)
}

func (q *countingQuery) EpochCost(batchRows, batches, threads int) float64 {
	cost := q.OnlineQuery.EpochCost(batchRows, batches, threads)
	if q.runaway {
		cost *= 1e6
	}
	return cost
}

// countedJob submits one q18 job (its state grows with every batch) over a
// counting query to a two-thread executor with a write-through store.
func countedJob(t *testing.T, mutate func(*core.AQPExecConfig)) (*core.AQPExecutor, *core.AQPJob, *countingQuery) {
	t.Helper()
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	inner, err := cat.NewQuery("q18")
	if err != nil {
		t.Fatal(err)
	}
	q := &countingQuery{OnlineQuery: inner}
	crit, err := criteria.NewAccuracy("ACC", 0.99, criteria.Deadline{Value: 1e6, Unit: criteria.Seconds})
	if err != nil {
		t.Fatal(err)
	}
	j, err := core.NewAQPJob(core.AQPJobConfig{ID: "counted", Query: q, Criteria: crit, Class: "heavy", EstMemMB: 1, BatchRows: 200})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 2
	cfg.RecordHistory = false
	cfg.Store = store
	mutate(&cfg)
	exec := core.NewAQPExecutor(cfg, fifoAQP{threads: 2}, nil)
	if err := exec.Validate(); err != nil {
		t.Fatal(err)
	}
	exec.Submit(j, 0)
	return exec, j, q
}

func stepUntil(t *testing.T, exec *core.AQPExecutor, what string, done func() bool) {
	t.Helper()
	for !done() {
		if !exec.Engine().Step() {
			t.Fatalf("engine ran dry before %s", what)
		}
	}
}

// An epoch the watchdog preempts or a crash interrupts runs no batch: the
// job's state stays, byte for byte, the state of its last completed epoch.
// The rollback that follows is therefore priced on the size of the
// checkpoint it reloads — 2·(base + MB·perMB) — not on in-flight state the
// reload discards.
func TestCutEpochRunsNoBatches(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		const base, perMB = 0.5, 1.0
		exec, j, q := countedJob(t, func(cfg *core.AQPExecConfig) {
			cfg.WatchdogSlack = 4
			cfg.CheckpointBaseSecs, cfg.CheckpointSecsPerMB = base, perMB
		})
		stepUntil(t, exec, "two completed epochs", func() bool { return j.Epochs() == 2 })
		if n := exec.Overload().WatchdogPreemptions; n != 0 || q.batches != 2*j.EpochBatches() {
			t.Fatalf("warm-up: %d preemptions, %d batches for 2 epochs of %d", n, q.batches, j.EpochBatches())
		}
		saved, _ := q.Checkpoint()
		savedMB := q.StateMemMB()
		work := q.EpochCost(j.BatchRows(), j.EpochBatches(), 2)
		batches, spent := q.batches, j.ProcessingSecs()

		q.runaway = true
		stepUntil(t, exec, "the preemption", func() bool { return exec.Overload().WatchdogPreemptions == 1 })
		q.runaway = false
		if now, _ := q.Checkpoint(); q.batches != batches || !bytes.Equal(now, saved) {
			t.Fatalf("preempted epoch ran %d batches; state changed: %v", q.batches-batches, !bytes.Equal(now, saved))
		}

		stepUntil(t, exec, "the rolled-back epoch", func() bool { return j.Epochs() == 3 })
		if rec := exec.Recovery(); rec.Rollbacks != 1 || rec.ScratchRestarts != 0 || exec.Overload().WatchdogPreemptions != 1 {
			t.Fatalf("recovery %+v, overload %+v: want one rollback through the store", rec, exec.Overload())
		}
		got := j.ProcessingSecs() - spent - exec.Overload().WatchdogWastedSecs
		want := 2*(base+savedMB*perMB) + work
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("rolled-back epoch cost %.9f s, want 2·(%.1f + %.6f MB·%.1f) + %.9f = %.9f", got, base, savedMB, perMB, work, want)
		}
		if q.batches != batches+j.EpochBatches() {
			t.Fatalf("%d batches after the rolled-back epoch, want %d", q.batches, batches+j.EpochBatches())
		}
	})
	t.Run("crash", func(t *testing.T) {
		exec, _, q := countedJob(t, func(cfg *core.AQPExecConfig) {
			cfg.Faults = faults.New(faults.Config{Seed: 1, CrashRate: 0.999999})
		})
		pristine, _ := q.Checkpoint()
		stepUntil(t, exec, "the crash", func() bool { return exec.Recovery().Crashes == 1 })
		if now, _ := q.Checkpoint(); q.batches != 0 || !bytes.Equal(now, pristine) {
			t.Fatalf("crashed epoch ran %d batches; state changed: %v", q.batches, !bytes.Equal(now, pristine))
		}
	})
}
