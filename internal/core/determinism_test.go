package core_test

import (
	"testing"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Entire AQP runs must be bit-for-bit reproducible: the virtual clock,
// seeded generators, and deterministic tie-breaking leave no room for
// run-to-run variation.
func TestAQPRunDeterminism(t *testing.T) {
	run := func() []string {
		cat := tpch.NewCatalog(tpch.Generate(0.005, 3), 3)
		repo := estimate.NewRepository()
		if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
			t.Fatal(err)
		}
		sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
		exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
		wcfg := workload.DefaultAQPWorkload(10, 3)
		wcfg.BatchRows = workload.RecommendedBatchRows(cat)
		for _, spec := range workload.GenerateAQP(wcfg) {
			j, err := workload.BuildAQPJob(cat, spec)
			if err != nil {
				t.Fatal(err)
			}
			exec.Submit(j, sim.Time(spec.ArrivalSecs))
		}
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range exec.Jobs() {
			out = append(out, j.ID(), j.Status().String(),
				j.EndTime().String(), sim.Time(j.ProcessingSecs()).String())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("AQP runs diverged at field %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// The same holds for DLT runs.
func TestDLTRunDeterminism(t *testing.T) {
	run := func() []string {
		repo := estimate.NewRepository()
		if err := workload.SeedDLTHistory(repo, 20, 30, 5); err != nil {
			t.Fatal(err)
		}
		sched := core.NewRotaryDLT(0.5, estimate.NewTEE(repo), estimate.NewTME(repo))
		exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
		for _, spec := range mustGenDLT(t, 8, 5) {
			j, err := workload.BuildDLTJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			exec.Submit(j, 0)
		}
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range exec.Jobs() {
			out = append(out, j.ID(), j.Status().String(), j.EndTime().String())
			for _, p := range j.Placements() {
				out = append(out, p.Start.String(), p.End.String())
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("DLT run traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("DLT runs diverged at field %d: %q vs %q", i, a[i], b[i])
		}
	}
}
