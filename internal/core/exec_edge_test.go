package core_test

import (
	"testing"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/invariants"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// fifoAQP grants one thread per job in arrival order with a configurable
// memory reservation — a minimal deterministic policy for edge tests.
type fifoAQP struct {
	reserve bool
	threads int
}

func (f fifoAQP) Name() string { return "fifo-test" }

func (f fifoAQP) Assign(ctx *core.AQPContext) []core.AQPGrant {
	th := f.threads
	if th <= 0 {
		th = 1
	}
	var grants []core.AQPGrant
	free := ctx.FreeThreads
	mem := ctx.FreeMemMB
	for _, j := range ctx.Pending {
		if free < th {
			break
		}
		r := 0.0
		if f.reserve {
			r = j.EstMemMB()
			if r > mem {
				continue
			}
		}
		grants = append(grants, core.AQPGrant{Job: j, Threads: th, ReserveMemMB: r})
		free -= th
		mem -= r
	}
	return grants
}

func buildJob(t *testing.T, cat *tpch.Catalog, id, query string, acc, deadline float64) *core.AQPJob {
	t.Helper()
	cls, _ := tpch.ClassOf(query)
	j, err := workload.BuildAQPJob(cat, workload.AQPSpec{
		ID: id, Query: query, Class: cls, Accuracy: acc,
		DeadlineSecs: deadline, BatchRows: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWatchdogExpiresWaitingJobs(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	// One thread total: the second job can never run before its deadline.
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 1
	exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
	long := buildJob(t, cat, "long", "q7", 0.95, 4000)
	starved := buildJob(t, cat, "starved", "q6", 0.95, 50)
	exec.Submit(long, 0)
	exec.Submit(starved, 0)
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	if starved.Status() != core.StatusExpired {
		t.Fatalf("starved job ended %v, want expired", starved.Status())
	}
	// The watchdog fires exactly at the deadline, not at the next epoch
	// boundary of some other job.
	if got := (starved.EndTime() - starved.Arrival()).Seconds(); got != 50 {
		t.Errorf("starved job expired after %vs, want exactly 50s", got)
	}
	if starved.Epochs() != 0 {
		t.Errorf("starved job ran %d epochs on a busy pool", starved.Epochs())
	}
}

func TestMemoryPressureSlowsOversubscribedPolicies(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	heavyProf, _ := cat.MemoryProfile("q9")
	budget := heavyProf.EstimateMB() * 1.05 // fits one q9; two oversubscribe heavily

	runtime := func(reserve bool) float64 {
		cfg := core.DefaultAQPExecConfig(budget)
		cfg.Threads = 4
		exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: reserve}, nil)
		a := buildJob(t, cat, "a", "q9", 0.9, 1e6)
		b := buildJob(t, cat, "b", "q9", 0.9, 1e6)
		exec.Submit(a, 0)
		exec.Submit(b, 0)
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		return exec.Engine().Now().Seconds()
	}
	aware := runtime(true)
	blind := runtime(false)
	// The memory-blind run co-schedules both heavy jobs and pays the
	// thrashing factor; despite the extra parallelism it must not beat the
	// memory-aware run by much, and the pressure should make it slower.
	if blind <= aware*0.95 {
		t.Errorf("memory-blind makespan %.0fs vs aware %.0fs: oversubscription unpunished", blind, aware)
	}
}

func TestHotContinueAvoidsCheckpointCost(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	// Single job alone: re-granted at the instant it releases, so no
	// checkpoint/restore cost is ever paid. Compare against a config with
	// enormous checkpoint costs — the makespan must be identical.
	run := func(cpSecs float64) float64 {
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 2
		cfg.CheckpointBaseSecs = cpSecs
		exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
		j := buildJob(t, cat, "solo", "q6", 0.9, 1e6)
		exec.Submit(j, 0)
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		return exec.Engine().Now().Seconds()
	}
	cheap := run(0.001)
	pricey := run(1000)
	if cheap != pricey {
		t.Errorf("continuously prioritized job paid checkpoint costs: %.1fs vs %.1fs", cheap, pricey)
	}
}

// underestimatingDLT places jobs while declaring (and believing) far too
// little memory, forcing the executor's OOM path.
type underestimatingDLT struct{}

func (underestimatingDLT) Name() string { return "underestimate" }

func (underestimatingDLT) Place(ctx *core.DLTContext) []core.DLTPlacement {
	var out []core.DLTPlacement
	used := map[string]bool{}
	for _, gpu := range ctx.FreeGPUs {
		for _, j := range ctx.Pending {
			if used[j.ID()] {
				continue
			}
			out = append(out, core.DLTPlacement{Job: j, Device: gpu.ID, EstMemMB: 1})
			used[j.ID()] = true
			break
		}
	}
	return out
}

func TestDLTOOMPathRequeuesJob(t *testing.T) {
	cfg := core.DefaultDLTExecConfig()
	cfg.GPUs = 1
	cfg.GPUMemMB = 512 // far below any real model's footprint
	cfg.Tracer = &core.Tracer{}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	exec := core.NewDLTExecutor(cfg, underestimatingDLT{}, nil)
	trainer, err := dlt.NewJob(dlt.Config{
		Model: "resnet-18", Dataset: "cifar10", BatchSize: 32,
		Optimizer: "sgd", LR: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 3, Unit: criteria.Epochs})
	j, err := core.NewDLTJob("oom", trainer, crit)
	if err != nil {
		t.Fatal(err)
	}
	exec.Submit(j, 0)
	exec.Engine().RunUntil(sim.Time(3600))
	if exec.OOMEvents() == 0 {
		t.Fatal("no OOM events on a 512 MB device")
	}
	// The OOM count, its counter and the trace agree.
	traced := 0
	for _, ev := range exec.Tracer().Events() {
		if ev.Kind == core.TraceOOM {
			traced++
		}
	}
	if err := invariants.RegistryAgrees(reg, map[string]int{"rotary_dlt_oom_total": exec.OOMEvents()}); err != nil || traced != exec.OOMEvents() {
		t.Errorf("OOMEvents %d, traced %d, counter: %v", exec.OOMEvents(), traced, err)
	}
	if j.Epochs() != 0 {
		t.Errorf("job trained %d epochs despite OOM", j.Epochs())
	}
	if j.Status().Terminal() {
		t.Errorf("OOM job terminal: %v", j.Status())
	}
}

func TestDLTRoundBarrierNoMidRoundPlacement(t *testing.T) {
	// With one GPU and two equal jobs, placements must alternate round by
	// round is not required — but a round must never start while the
	// previous round's job is still mid-epoch, so the device is never
	// double-booked and placements never overlap in time.
	repo := estimate.NewRepository()
	sched := core.NewRotaryDLT(0.5, estimate.NewTEE(repo), estimate.NewTME(repo))
	cfg := core.DefaultDLTExecConfig()
	cfg.GPUs = 1
	exec := core.NewDLTExecutor(cfg, sched, repo)
	crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 4, Unit: criteria.Epochs})
	var jobs []*core.DLTJob
	for i := 0; i < 2; i++ {
		trainer, err := dlt.NewJob(dlt.Config{
			Model: "lenet", Dataset: "cifar10", BatchSize: 32,
			Optimizer: "sgd", LR: 0.01, Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := core.NewDLTJob(string(rune('a'+i)), trainer, crit)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		exec.Submit(j, 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	// Collect all placements on device 0 and check non-overlap.
	type span struct{ s, e sim.Time }
	var spans []span
	for _, j := range jobs {
		for _, p := range j.Placements() {
			if p.Device != 0 {
				t.Fatalf("placement on unknown device %d", p.Device)
			}
			spans = append(spans, span{p.Start, p.End})
		}
	}
	for i := range spans {
		for k := i + 1; k < len(spans); k++ {
			a, b := spans[i], spans[k]
			if a.s < b.e && b.s < a.e {
				t.Fatalf("overlapping placements %v and %v on one device", a, b)
			}
		}
	}
}

func TestGPUClusterNeverOverCommitted(t *testing.T) {
	// Run a full DLT workload and verify the cluster ledger stayed sound
	// (the executor checks nothing explicitly; the invariant must hold by
	// construction).
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 20, 30, 1); err != nil {
		t.Fatal(err)
	}
	sched := core.NewRotaryDLT(0.0, estimate.NewTEE(repo), estimate.NewTME(repo))
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
	for _, spec := range mustGenDLT(t, 8, 2) {
		j, err := workload.BuildDLTJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		exec.Submit(j, 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	// Per-device placement spans must not overlap across the whole run.
	byDevice := map[int][]core.Placement{}
	for _, j := range exec.Jobs() {
		for _, p := range j.Placements() {
			byDevice[p.Device] = append(byDevice[p.Device], p)
		}
	}
	if len(byDevice) == 0 {
		t.Fatal("no placements recorded")
	}
	for dev, ps := range byDevice {
		for i := range ps {
			for k := i + 1; k < len(ps); k++ {
				if ps[i].Start < ps[k].End && ps[k].Start < ps[i].End {
					t.Fatalf("device %d double-booked: %+v vs %+v", dev, ps[i], ps[k])
				}
			}
		}
	}
}
