// unified-cluster demonstrates the paper's §VI vision: "a unified
// resource arbitration system on a cluster to handle AQP and DLT jobs
// together. Such a system can serve more users and enormously improve
// resource utilization."
//
// A mixed workload — TPC-H reporting queries on the CPU pool and training
// jobs on the GPUs — runs on one virtual clock under one cluster-wide
// fairness threshold: while any job of either kind lags below T, both
// sides serve their laggards first; once the whole cluster clears T, both
// switch to efficiency. The run prints the cluster-wide minimum progress
// over time for T = 100% and T = 0%.
package main

import (
	"fmt"
	"log"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func run(threshold float64) {
	ds := tpch.Generate(0.01, 21)
	cat := tpch.NewCatalog(ds, 21)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		log.Fatal(err)
	}
	if err := workload.SeedDLTHistory(repo, 30, 30, 21); err != nil {
		log.Fatal(err)
	}
	u := core.NewUnifiedExecutor(core.UnifiedExecConfig{
		AQP:       core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)),
		DLT:       core.DefaultDLTExecConfig(),
		Threshold: threshold,
	}, repo)

	for _, spec := range workload.GenerateAQP(workload.DefaultAQPWorkload(8, 21)) {
		spec.BatchRows = workload.RecommendedBatchRows(cat)
		j, err := workload.BuildAQPJob(cat, spec)
		if err != nil {
			log.Fatal(err)
		}
		u.SubmitAQP(j, sim.Time(spec.ArrivalSecs))
	}
	dltSpecs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(8, 21))
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range dltSpecs {
		j, err := workload.BuildDLTJob(spec)
		if err != nil {
			log.Fatal(err)
		}
		u.SubmitDLT(j, 0)
	}

	fmt.Printf("\ncluster-wide threshold T = %.0f%%\n", threshold*100)
	fmt.Printf("%10s %22s\n", "t(min)", "cluster min progress")
	for tick := sim.Time(600); ; tick += 600 {
		u.Engine().RunUntil(tick)
		fmt.Printf("%10.0f %22.2f\n", tick.Minutes(), u.MinProgress())
		if u.Engine().Pending() == 0 {
			break
		}
	}
	aqpDone, dltDone := 0, 0
	for _, j := range u.AQPJobs() {
		if j.Status() == core.StatusAttainedStop {
			aqpDone++
		}
	}
	for _, j := range u.DLTJobs() {
		if j.Status() == core.StatusAttainedStop {
			dltDone++
		}
	}
	fmt.Printf("attained: %d/%d AQP jobs, %d/%d DLT jobs; makespan %.0f min\n",
		aqpDone, len(u.AQPJobs()), dltDone, len(u.DLTJobs()), u.Engine().Now().Minutes())
}

func main() {
	log.SetFlags(0)
	fmt.Println("unified AQP + DLT arbitration on one cluster (§VI)")
	run(1.0) // cluster-wide fairness
	run(0.0) // cluster-wide efficiency
}
