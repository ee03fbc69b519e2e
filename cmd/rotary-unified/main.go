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
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/obs"
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
	ds := tpch.Generate(*sf, *seed)
	cat := tpch.NewCatalog(ds, *seed)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		log.Fatal(err)
	}
	if err := workload.SeedDLTHistory(repo, 30, 30, *seed); err != nil {
		log.Fatal(err)
	}

	if *traceOut != "" {
		sink, err := obs.OpenJSONLSink(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
		// Both substrates adopt the default tracer, so one JSONL stream
		// carries the unified run's full arbitration timeline.
		tracer := core.NewTracer(0)
		tracer.SetSink(sink)
		core.SetDefaultTracer(tracer)
	}

	u := core.NewUnifiedExecutor(core.UnifiedExecConfig{
		AQP:       core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)),
		DLT:       core.DefaultDLTExecConfig(),
		Threshold: *threshold,
	}, repo)

	wcfg := workload.DefaultAQPWorkload(*aqpJobs, *seed)
	wcfg.BatchRows = workload.RecommendedBatchRows(cat)
	for _, spec := range workload.GenerateAQP(wcfg) {
		j, err := workload.BuildAQPJob(cat, spec)
		if err != nil {
			log.Fatal(err)
		}
		u.SubmitAQP(j, sim.Time(spec.ArrivalSecs))
	}
	dltSpecs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(*dltJobs, *seed))
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

	fmt.Printf("running %d AQP + %d DLT jobs with cluster-wide T = %.0f%%…\n\n",
		*aqpJobs, *dltJobs, *threshold*100)
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
	fmt.Printf("\nattained: %d/%d AQP, %d/%d DLT; makespan %.0f virtual minutes\n",
		aqpDone, len(u.AQPJobs()), dltDone, len(u.DLTJobs()), u.Engine().Now().Minutes())
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, []byte(obs.Default().RenderText(true)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
}
