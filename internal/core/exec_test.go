package core_test

import (
	"testing"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func buildAQPWorkload(t *testing.T, n int, seed uint64) (*tpch.Catalog, []workload.AQPSpec) {
	t.Helper()
	ds := tpch.Generate(0.005, seed)
	cat := tpch.NewCatalog(ds, seed)
	cfg := workload.DefaultAQPWorkload(n, seed)
	cfg.MeanArrivalSecs = 40
	return cat, workload.GenerateAQP(cfg)
}

func runAQP(t *testing.T, cat *tpch.Catalog, specs []workload.AQPSpec, sched core.AQPScheduler, repo *estimate.Repository) *core.AQPExecutor {
	t.Helper()
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
	for _, spec := range specs {
		j, err := workload.BuildAQPJob(cat, spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.ID, err)
		}
		exec.Submit(j, sim.Time(spec.ArrivalSecs))
	}
	if err := exec.Run(); err != nil {
		t.Fatalf("%s: %v", sched.Name(), err)
	}
	return exec
}

func TestAQPExecutorRunsWorkloadToCompletion(t *testing.T) {
	cat, specs := buildAQPWorkload(t, 8, 11)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, 2000); err != nil {
		t.Fatalf("seed history: %v", err)
	}
	scheds := []core.AQPScheduler{
		core.NewRotaryAQP(estimate.NewAccuracyProgress(repo)),
		baselines.RoundRobinAQP{},
		baselines.EDFAQP{},
		baselines.LAFAQP{},
		baselines.ReLAQS{},
	}
	for _, sched := range scheds {
		exec := runAQP(t, cat, specs, sched, repo)
		for _, j := range exec.Jobs() {
			if !j.Status().Terminal() {
				t.Errorf("%s: job %s not terminal: %v", sched.Name(), j.ID(), j.Status())
			}
			if j.EndTime() < j.Arrival() {
				t.Errorf("%s: job %s ends before arrival", sched.Name(), j.ID())
			}
			if j.Epochs() == 0 && j.Status() != core.StatusExpired {
				t.Errorf("%s: job %s terminal with zero epochs and status %v", sched.Name(), j.ID(), j.Status())
			}
		}
	}
}

func TestDLTExecutorRunsWorkloadToCompletion(t *testing.T) {
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 40, 30, 3); err != nil {
		t.Fatalf("seed history: %v", err)
	}
	specs := mustGenDLT(t, 10, 7)
	tee := estimate.NewTEE(repo)
	tme := estimate.NewTME(repo)
	scheds := []core.DLTScheduler{
		core.NewRotaryDLT(0.0, tee, tme),
		core.NewRotaryDLT(0.5, tee, tme),
		core.NewRotaryDLT(1.0, tee, tme),
		baselines.SRF{},
		baselines.BCF{},
		baselines.LAFDLT{},
	}
	for _, sched := range scheds {
		exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
		for _, spec := range specs {
			j, err := workload.BuildDLTJob(spec)
			if err != nil {
				t.Fatalf("build %s: %v", spec.ID, err)
			}
			exec.Submit(j, 0)
		}
		if err := exec.Run(); err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if exec.OOMEvents() > 0 {
			t.Errorf("%s: %d OOM events with padded TME estimates", sched.Name(), exec.OOMEvents())
		}
		for _, j := range exec.Jobs() {
			if !j.Status().Terminal() {
				t.Errorf("%s: job %s not terminal: %v", sched.Name(), j.ID(), j.Status())
			}
			if j.Epochs() == 0 {
				t.Errorf("%s: job %s never trained", sched.Name(), j.ID())
			}
		}
	}
}
