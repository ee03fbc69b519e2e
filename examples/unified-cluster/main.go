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

	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func run(threshold float64) {
	cat := tpch.NewCatalog(tpch.Generate(0.01, 21), 21)
	u, err := workload.SubmitUnified(cat, threshold, 8, 8, 21)
	if err != nil {
		log.Fatal(err)
	}
	const every = sim.Time(600)
	series, err := u.RunSampled(every)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncluster-wide threshold T = %.0f%%\n", threshold*100)
	fmt.Printf("%10s %22s\n", "t(min)", "cluster min progress")
	for i, p := range series {
		fmt.Printf("%10.0f %22.2f\n", (every * sim.Time(i+1)).Minutes(), p)
	}
	aqpDone, dltDone := u.Attained()
	fmt.Printf("attained: %d/%d AQP jobs, %d/%d DLT jobs; makespan %.0f min\n",
		aqpDone, len(u.AQPJobs()), dltDone, len(u.DLTJobs()), u.Engine().Now().Minutes())
}

func main() {
	log.SetFlags(0)
	fmt.Println("unified AQP + DLT arbitration on one cluster (§VI)")
	run(1.0) // cluster-wide fairness
	run(0.0) // cluster-wide efficiency
}
