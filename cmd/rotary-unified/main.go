// Command rotary-unified runs a mixed AQP + DLT workload through the §VI
// unified arbitration system: one virtual clock, one historical
// repository, one cluster-wide fairness threshold across both resource
// substrates.
//
// Usage:
//
//	rotary-unified [-threshold 0.5] [-aqp-jobs 10] [-dlt-jobs 10] [-sf 0.01] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rotary/internal/cliutil"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-unified: ")
	var (
		threshold  = flag.Float64("threshold", 0.5, "cluster-wide fairness threshold T in [0, 1]")
		aqpJobs    = flag.Int("aqp-jobs", 10, "AQP workload size")
		dltJobs    = flag.Int("dlt-jobs", 10, "DLT workload size")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor")
		seed       = flag.Uint64("seed", 1, "random seed")
		traceOut   = flag.String("trace-out", "", "stream every trace event (both substrates) as JSON lines to this file")
		metricsOut = flag.String("metrics-out", "", "write the final metrics registry (Prometheus text format) to this file")
	)
	flag.Parse()
	rf := cliutil.RunFlags{TraceOut: *traceOut, MetricsOut: *metricsOut}
	if err := cliutil.ValidateAll(
		cliutil.Fraction("-threshold", *threshold),
		cliutil.MinInt("-aqp-jobs", *aqpJobs, 1),
		cliutil.MinInt("-dlt-jobs", *dltJobs, 1),
		cliutil.Positive("-sf", *sf),
	); err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("generating TPC-H at SF=%g and seeding history…\n", *sf)
	cat := tpch.NewCatalog(tpch.Generate(*sf, *seed), *seed)
	// Both substrates adopt the default tracer Start installs, so one
	// JSONL stream carries the unified run's full arbitration timeline.
	run, err := cliutil.Start(rf)
	if err != nil {
		log.Fatal(err)
	}
	u, err := workload.SubmitUnified(cat, *threshold, *aqpJobs, *dltJobs, *seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d AQP + %d DLT jobs with cluster-wide T = %.0f%%…\n\n",
		*aqpJobs, *dltJobs, *threshold*100)
	const every = sim.Time(600)
	series, err := u.RunSampled(every)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%10s %22s\n", "t(min)", "cluster min progress")
	for i, p := range series {
		fmt.Printf("%10.0f %22.2f\n", (every * sim.Time(i+1)).Minutes(), p)
	}

	aqpDone, dltDone := u.Attained()
	fmt.Printf("\nattained: %d/%d AQP, %d/%d DLT; makespan %.0f virtual minutes\n",
		aqpDone, len(u.AQPJobs()), dltDone, len(u.DLTJobs()), u.Engine().Now().Minutes())
	if err := run.Close(); err != nil {
		log.Fatal(err)
	}
}
