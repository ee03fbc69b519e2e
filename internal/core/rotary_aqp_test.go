package core_test

import (
	"testing"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// mkAQPCtx builds a context of fresh jobs over a shared tiny catalog.
func mkAQPCtx(t *testing.T, queries []string, freeThreads int, freeMem float64) (*core.AQPContext, []*core.AQPJob) {
	t.Helper()
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	var jobs []*core.AQPJob
	for i, q := range queries {
		cls, _ := tpch.ClassOf(q)
		j, err := workload.BuildAQPJob(cat, workload.AQPSpec{
			ID: string(rune('a'+i)) + "-" + q, Query: q, Class: cls,
			Accuracy: 0.8, DeadlineSecs: 2000, BatchRows: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	return &core.AQPContext{
		Pending:      jobs,
		FreeThreads:  freeThreads,
		TotalThreads: freeThreads,
		FreeMemMB:    freeMem,
		TotalMemMB:   freeMem,
	}, jobs
}

func TestRotaryAQPAdaptiveEpochsProportionalToMemory(t *testing.T) {
	ctx, jobs := mkAQPCtx(t, []string{"q6", "q9"}, 8, 1e6)
	sched := core.NewRotaryAQP(nil)
	sched.Assign(ctx)
	light, heavy := jobs[0], jobs[1]
	if heavy.EpochBatches() <= light.EpochBatches() {
		t.Errorf("heavy q9 epoch %d batches not above light q6's %d",
			heavy.EpochBatches(), light.EpochBatches())
	}
	// Fixed-epoch variant leaves the defaults.
	ctx2, jobs2 := mkAQPCtx(t, []string{"q6", "q9"}, 8, 1e6)
	fixed := core.NewRotaryAQP(nil)
	fixed.AdaptiveEpochs = false
	fixed.Assign(ctx2)
	if jobs2[0].EpochBatches() != jobs2[1].EpochBatches() {
		t.Errorf("fixed-epoch variant adapted epochs: %d vs %d",
			jobs2[0].EpochBatches(), jobs2[1].EpochBatches())
	}
}

func TestRotaryAQPMemoryAwareAdmission(t *testing.T) {
	// A budget fitting only the light job: the heavy one must be deferred.
	ctx, jobs := mkAQPCtx(t, []string{"q9", "q6"}, 8, 0)
	light := jobs[1]
	ctx.FreeMemMB = light.EstMemMB() * 1.1
	ctx.TotalMemMB = ctx.FreeMemMB
	sched := core.NewRotaryAQP(nil)
	grants := sched.Assign(ctx)
	if len(grants) != 1 || grants[0].Job != light {
		ids := make([]string, len(grants))
		for i, g := range grants {
			ids[i] = g.Job.ID()
		}
		t.Fatalf("granted %v, want only the light job", ids)
	}
	// The memory-blind variant admits both.
	ctx2, _ := mkAQPCtx(t, []string{"q9", "q6"}, 8, 0)
	ctx2.FreeMemMB = light.EstMemMB() * 1.1
	ctx2.TotalMemMB = ctx2.FreeMemMB
	blind := core.NewRotaryAQP(nil)
	blind.MemoryAware = false
	if got := len(blind.Assign(ctx2)); got != 2 {
		t.Fatalf("memory-blind variant granted %d jobs, want 2", got)
	}
}

func TestRotaryAQPTrialJobsFirst(t *testing.T) {
	ctx, jobs := mkAQPCtx(t, []string{"q6", "q12"}, 1, 1e6)
	// Give the first job some history so it is no longer a trial.
	ran := jobs[0]
	ran.Query().ProcessBatch(200, 1)
	forceEpochObserved(t, ran)
	sched := core.NewRotaryAQP(nil)
	grants := sched.Assign(ctx)
	if len(grants) != 1 || grants[0].Job != jobs[1] {
		t.Fatalf("single thread went to %s, want the never-run trial job", grants[0].Job.ID())
	}
}

// forceEpochObserved simulates one completed epoch's bookkeeping via a
// tiny executor round.
func forceEpochObserved(t *testing.T, j *core.AQPJob) {
	t.Helper()
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 1
	exec := core.NewAQPExecutor(cfg, onceAQP{j}, nil)
	exec.Submit(j, 0)
	exec.Engine().RunUntil(1e9)
	if j.Epochs() == 0 {
		t.Fatal("setup failed: job never ran an epoch")
	}
}

// onceAQP grants one epoch to a designated job, then goes idle.
type onceAQP struct{ target *core.AQPJob }

func (o onceAQP) Name() string { return "once" }

func (o onceAQP) Assign(ctx *core.AQPContext) []core.AQPGrant {
	if o.target.Epochs() > 0 {
		return nil
	}
	for _, j := range ctx.Pending {
		if j == o.target {
			return []core.AQPGrant{{Job: j, Threads: 1, ReserveMemMB: 0}}
		}
	}
	return nil
}

func TestRotaryAQPGreedyExtrasRespectCap(t *testing.T) {
	ctx, _ := mkAQPCtx(t, []string{"q6", "q12", "q14"}, 20, 1e6)
	sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(estimate.NewRepository()))
	grants := sched.Assign(ctx)
	if len(grants) != 3 {
		t.Fatalf("granted %d jobs, want 3", len(grants))
	}
	total := 0
	for _, g := range grants {
		if g.Threads > sched.MaxThreadsPerJob {
			t.Errorf("%s granted %d threads over the %d cap", g.Job.ID(), g.Threads, sched.MaxThreadsPerJob)
		}
		total += g.Threads
	}
	// The whole pool is used (20 threads across 3 jobs capped at 8 each
	// can absorb it all), never over-granted.
	if total != ctx.FreeThreads {
		t.Errorf("total threads %d, want the full pool %d", total, ctx.FreeThreads)
	}
}
