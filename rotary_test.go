package rotary_test

// End-to-end exercises of the internal packages the examples and cmd/
// tools build on: AQP and DLT jobs from criterion to report.

import (
	"testing"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func TestPublicAPIAQPEndToEnd(t *testing.T) {
	ds := tpch.Generate(0.005, 1)
	cat := tpch.NewCatalog(ds, 1)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		t.Fatal(err)
	}
	sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)

	cmd := "SELECT SUM(L_EXTENDEDPRICE*L_DISCOUNT) FROM LINEITEM ACC MIN 80% WITHIN 900 SECONDS"
	rest, crit, err := criteria.Parse(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if rest == "" || crit.Kind != criteria.Accuracy {
		t.Fatalf("parse: %q %+v", rest, crit)
	}
	q, err := cat.NewQuery("q6")
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewAQPJob(core.AQPJobConfig{
		ID: "api-q6", Query: q, Criteria: crit, Class: "light",
		BatchRows: workload.RecommendedBatchRows(cat),
	})
	if err != nil {
		t.Fatal(err)
	}
	exec.Submit(job, 0)
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	if !job.Status().Terminal() {
		t.Fatalf("job not terminal: %v", job.Status())
	}
	if job.Status() == core.StatusAttainedStop && job.EstimatedAccuracy() < 0.8 {
		t.Errorf("attained at estimated accuracy %v < threshold", job.EstimatedAccuracy())
	}
	rep := metrics.AnalyzeAQP("api", exec.Jobs(), nil)
	if len(rep.Outcomes) != 1 {
		t.Fatalf("report has %d outcomes", len(rep.Outcomes))
	}
}

func TestPublicAPIDLTEndToEnd(t *testing.T) {
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 15, 30, 2); err != nil {
		t.Fatal(err)
	}
	sched := core.NewRotaryDLT(0.5, estimate.NewTEE(repo), estimate.NewTME(repo))
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)

	_, crit, err := criteria.Parse("TRAIN RESNET ON CIFAR10 ACC DELTA 0.01 WITHIN 30 EPOCHS")
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := dlt.NewJob(dlt.Config{
		Model: "resnet-18", Dataset: "cifar10", BatchSize: 32,
		Optimizer: "sgd", LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := core.NewDLTJob("api-resnet", trainer, crit)
	if err != nil {
		t.Fatal(err)
	}
	exec.Submit(job, 0)
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Status() != core.StatusAttainedStop {
		t.Fatalf("convergence job ended %v", job.Status())
	}
	if job.ConvergedAtEpoch() == 0 {
		t.Error("no convergence epoch recorded")
	}
	snaps := metrics.SnapshotDLT(exec.Jobs(), []sim.Time{exec.Engine().Now()})
	if len(snaps) != 1 || snaps[0].Attained != 1 {
		t.Fatalf("snapshot %+v", snaps)
	}
	if g := metrics.RenderGantt(exec.Jobs(), 4, exec.Engine().Now(), 20); g == "" {
		t.Error("empty Gantt")
	}
}

func TestPublicAPIWorkloadGeneration(t *testing.T) {
	specs := workload.GenerateAQP(workload.DefaultAQPWorkload(10, 1))
	if len(specs) != 10 {
		t.Fatalf("%d AQP specs", len(specs))
	}
	dspecs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dspecs) != 10 {
		t.Fatalf("%d DLT specs", len(dspecs))
	}
	if len(tpch.AllQueries) != 22 {
		t.Fatalf("%d TPC-H queries", len(tpch.AllQueries))
	}
	if len(dlt.Models()) == 0 {
		t.Fatal("empty model zoo")
	}
}
