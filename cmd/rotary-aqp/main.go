// Command rotary-aqp runs a Table I TPC-H AQP workload under Rotary-AQP
// or one of the paper's baselines and prints the attainment report.
//
// Usage:
//
//	rotary-aqp [-policy rotary|relaqs|edf|laf|rr] [-jobs 30] [-sf 0.02] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/metrics"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-aqp: ")
	var (
		policy  = flag.String("policy", "rotary", "scheduling policy: rotary, relaqs, edf, laf, rr")
		jobs    = flag.Int("jobs", 30, "workload size")
		sf      = flag.Float64("sf", 0.02, "TPC-H scale factor")
		seed    = flag.Uint64("seed", 1, "random seed")
		mean    = flag.Float64("arrival", 160, "mean Poisson inter-arrival time (seconds)")
		trace   = flag.Int("trace", 0, "print the last N arbitration trace events")
		save    = flag.String("save-workload", "", "write the generated workload to this JSON file")
		load    = flag.String("load-workload", "", "run the workload from this JSON file instead of generating")
		desc    = flag.String("describe", "", "describe a query's plan shape (e.g. q5) and exit")
		dataPar = flag.Int("data-parallel", runtime.NumCPU(),
			"cap on real goroutines per epoch's data path (minimum 1)")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injection seed (0 = reuse -seed)")
		faultRate = flag.Float64("fault-rate", 0,
			"total per-opportunity fault probability (crashes + checkpoint I/O faults); 0 disables injection")
		traceOut   = flag.String("trace-out", "", "stream every trace event as JSON lines to this file")
		metricsOut = flag.String("metrics-out", "", "write the final metrics registry (Prometheus text format) to this file")
	)
	flag.Parse()
	if err := cliutil.ValidateAll(
		cliutil.OneOf("-policy", *policy, "rotary", "relaqs", "edf", "laf", "rr"),
		cliutil.MinInt("-jobs", *jobs, 1),
		cliutil.Positive("-sf", *sf),
		cliutil.NonNegative("-arrival", *mean),
		cliutil.MinInt("-trace", *trace, 0),
		cliutil.MinInt("-data-parallel", *dataPar, 1),
		cliutil.Fraction("-fault-rate", *faultRate),
	); err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("generating TPC-H at SF=%g (seed %d)…\n", *sf, *seed)
	ds := tpch.Generate(*sf, *seed)
	cat := tpch.NewCatalog(ds, *seed)

	if *desc != "" {
		out, err := cat.Describe(*desc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}

	var specs []workload.AQPSpec
	if *load != "" {
		var err error
		specs, err = workload.LoadAQPSpecs(*load)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		wcfg := workload.DefaultAQPWorkload(*jobs, *seed)
		wcfg.MeanArrivalSecs = *mean
		wcfg.BatchRows = workload.RecommendedBatchRows(cat)
		specs = workload.GenerateAQP(wcfg)
	}
	if *save != "" {
		if err := workload.SaveAQPSpecs(*save, specs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved workload to %s\n", *save)
	}

	repo := estimate.NewRepository()
	sched, err := cliutil.NewAQPPolicy(*policy, repo, cat)
	if err != nil {
		log.Fatal(err)
	}

	execCfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	// Grants map to real goroutines in the data path; cap the physical
	// fan-out to the local machine while the virtual 20-thread testbed
	// accounting stays unchanged.
	execCfg.DataParallelism = *dataPar
	var injector *faults.Injector
	if *faultRate > 0 {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		dir, err := os.MkdirTemp("", "rotary-ckpt-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		store, err := core.NewCheckpointStore(dir, 8)
		if err != nil {
			log.Fatal(err)
		}
		injector = faults.New(faults.Uniform(fseed, *faultRate))
		store.SetFaults(injector)
		execCfg.Store = store
		execCfg.Faults = injector
		fmt.Printf("fault injection armed: rate=%g seed=%d\n", *faultRate, fseed)
	}
	var tracer *core.Tracer
	if *trace > 0 || *traceOut != "" {
		tracer = &core.Tracer{}
		execCfg.Tracer = tracer
	}
	var sink *obs.JSONLSink
	if *traceOut != "" {
		var err error
		if sink, err = obs.OpenJSONLSink(*traceOut); err != nil {
			log.Fatal(err)
		}
		tracer.SetSink(sink)
	}
	exec := core.NewAQPExecutor(execCfg, sched, repo)
	for _, spec := range specs {
		j, err := workload.BuildAQPJob(cat, spec)
		if err != nil {
			log.Fatal(err)
		}
		exec.Submit(j, sim.Time(spec.ArrivalSecs))
	}
	fmt.Printf("running %d jobs under %s…\n\n", len(specs), sched.Name())
	if err := exec.Run(); err != nil {
		log.Fatal(err)
	}

	rep := metrics.AnalyzeAQP(sched.Name(), exec.Jobs(), nil)
	rep.SortOutcomesByID()
	fmt.Printf("%-18s %-7s %-7s %9s %9s %9s %-10s %s\n",
		"job", "query", "class", "threshold", "deadline", "runtime", "status", "attained")
	for _, o := range rep.Outcomes {
		att := ""
		if o.Attained {
			att = "✓"
		}
		fmt.Printf("%-18s %-7s %-7s %8.0f%% %8.0fs %8.0fs %-10s %s\n",
			o.ID, o.Query, o.Class, findThreshold(specs, o.ID)*100, findDeadline(specs, o.ID),
			o.RuntimeSecs, o.Status, att)
	}
	att := rep.AttainedByClass()
	tot := rep.TotalByClass()
	fmt.Printf("\nattained: light %d/%d, medium %d/%d, heavy %d/%d, total %d/%d; false attainment %d\n",
		att["light"], tot["light"], att["medium"], tot["medium"],
		att["heavy"], tot["heavy"], att["total"], tot["total"], rep.FalseAttained())
	fmt.Printf("virtual makespan: %s\n", exec.Engine().Now())
	if injector != nil {
		fmt.Println()
		fmt.Print(metrics.RenderRecovery(sched.Name(), exec.Recovery(), execCfg.Store.Health()))
	}
	if tracer != nil && *trace > 0 {
		fmt.Printf("\nlast %d arbitration events:\n%s", *trace, tracer.Render(*trace))
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, []byte(obs.Default().RenderText(true)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metricsOut)
	}
	if err := sink.Close(); err != nil {
		log.Fatalf("-trace-out: %v", err)
	}
}

func findThreshold(specs []workload.AQPSpec, id string) float64 {
	for _, s := range specs {
		if s.ID == id {
			return s.Accuracy
		}
	}
	return 0
}

func findDeadline(specs []workload.AQPSpec, id string) float64 {
	for _, s := range specs {
		if s.ID == id {
			return s.DeadlineSecs
		}
	}
	return 0
}
