// aqp-multitenant reproduces the introduction's motivating scenario: many
// analysts share one warehouse, each submitting reporting queries with a
// time budget, and an overly ambitious budget should not block key
// resources — if a query's answer is precise enough after one minute, the
// remaining budget should flow to other tenants.
//
// The example runs the same 30-query TPC-H workload under Rotary-AQP and
// under EDF and compares who attains what, and how much budgeted time the
// early stops returned to the cluster.
package main

import (
	"fmt"
	"log"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func run(cat *tpch.Catalog, specs []workload.AQPSpec, sched core.AQPScheduler, repo *estimate.Repository) []*core.AQPJob {
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
	if _, err := workload.SubmitAQP(cat, specs, exec.Submit); err != nil {
		log.Fatal(err)
	}
	if err := exec.Run(); err != nil {
		log.Fatal(err)
	}
	return exec.Jobs()
}

func main() {
	log.SetFlags(0)
	fmt.Println("generating shared TPC-H warehouse (SF 0.01)…")
	ds := tpch.Generate(0.01, 7)
	cat := tpch.NewCatalog(ds, 7)

	wcfg := workload.DefaultAQPWorkload(30, 7)
	wcfg.BatchRows = workload.RecommendedBatchRows(cat)
	specs := workload.GenerateAQP(wcfg)

	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, wcfg.BatchRows); err != nil {
		log.Fatal(err)
	}

	for _, s := range []core.AQPScheduler{
		core.NewRotaryAQP(estimate.NewAccuracyProgress(repo)),
		baselines.EDFAQP{},
	} {
		jobs := run(cat, specs, s, repo)
		rep := metrics.AnalyzeAQP(s.Name(), jobs, nil)
		att := rep.AttainedByClass()
		tot := rep.TotalByClass()

		// Budget returned to the cluster: deadline minus actual runtime,
		// summed over jobs that stopped early with a satisfying answer.
		var returnedSecs float64
		for _, j := range jobs {
			if j.Status() == core.StatusAttainedStop {
				if slack := j.DeadlineSecs() - (j.EndTime() - j.Arrival()).Seconds(); slack > 0 {
					returnedSecs += slack
				}
			}
		}
		fmt.Printf("\npolicy %-12s attained light %d/%d, medium %d/%d, heavy %d/%d, total %d/%d\n",
			s.Name(), att["light"], tot["light"], att["medium"], tot["medium"],
			att["heavy"], tot["heavy"], att["total"], tot["total"])
		fmt.Printf("  budgeted time returned by early stops: %.0f job-seconds\n", returnedSecs)
		fmt.Printf("  false attainments (envelope mistakes): %d\n", rep.FalseAttained())
	}
}
