// Command rotary-dlt runs a Table II survey-based DLT workload under a
// Rotary-DLT variant or one of the paper's baselines on a simulated GPU
// cluster and prints per-job outcomes plus progress snapshots.
//
// Usage:
//
//	rotary-dlt [-policy adaptive|fairness|efficiency|srf|bcf|laf] [-jobs 30] [-gpus 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"rotary/internal/baselines"
	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/metrics"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-dlt: ")
	var (
		policy    = flag.String("policy", "adaptive", "policy: adaptive, fairness, efficiency, srf, bcf, laf")
		jobs      = flag.Int("jobs", 30, "workload size")
		gpus      = flag.Int("gpus", 4, "GPU count")
		seed      = flag.Uint64("seed", 1, "random seed")
		history   = flag.Int("history", 40, "historical jobs to seed the repository with")
		trace     = flag.Int("trace", 0, "print the last N arbitration trace events")
		save      = flag.String("save-workload", "", "write the generated workload to this JSON file")
		load      = flag.String("load-workload", "", "run the workload from this JSON file instead of generating")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injection seed (0 = reuse -seed)")
		faultRate = flag.Float64("fault-rate", 0,
			"total per-opportunity fault probability (GPU crashes + checkpoint I/O faults); 0 disables injection")
		traceOut   = flag.String("trace-out", "", "stream every trace event as JSON lines to this file")
		metricsOut = flag.String("metrics-out", "", "write the final metrics registry (Prometheus text format) to this file")
	)
	flag.Parse()
	if err := cliutil.ValidateAll(
		cliutil.OneOf("-policy", *policy, "adaptive", "fairness", "efficiency", "srf", "bcf", "laf"),
		cliutil.MinInt("-jobs", *jobs, 1),
		cliutil.MinInt("-gpus", *gpus, 1),
		cliutil.MinInt("-history", *history, 0),
		cliutil.MinInt("-trace", *trace, 0),
		cliutil.Fraction("-fault-rate", *faultRate),
	); err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}

	var specs []workload.DLTSpec
	if *load != "" {
		var err error
		specs, err = workload.LoadDLTSpecs(*load)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		specs, err = workload.GenerateDLT(workload.DefaultDLTWorkload(*jobs, *seed))
		if err != nil {
			log.Fatal(err)
		}
	}
	if *save != "" {
		if err := workload.SaveDLTSpecs(*save, specs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved workload to %s\n", *save)
	}
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, *history, 30, *seed); err != nil {
		log.Fatal(err)
	}
	tee := estimate.NewTEE(repo, 3)
	tme := estimate.NewTME(repo, 3)

	var sched core.DLTScheduler
	switch *policy {
	case "adaptive":
		sched = core.NewRotaryDLT(0.5, tee, tme)
	case "fairness":
		sched = core.NewRotaryDLT(1.0, tee, tme)
	case "efficiency":
		sched = core.NewRotaryDLT(0.0, tee, tme)
	case "srf":
		sched = baselines.SRF{}
	case "bcf":
		sched = baselines.BCF{}
	case "laf":
		sched = baselines.LAFDLT{}
	default:
		log.Printf("unknown policy %q", *policy)
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.DefaultDLTExecConfig()
	cfg.GPUs = *gpus
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
		cfg.Store = store
		cfg.Faults = injector
		fmt.Printf("fault injection armed: rate=%g seed=%d\n", *faultRate, fseed)
	}
	var tracer *core.Tracer
	if *trace > 0 || *traceOut != "" {
		tracer = &core.Tracer{}
		cfg.Tracer = tracer
	}
	var sink *obs.JSONLSink
	if *traceOut != "" {
		var err error
		if sink, err = obs.OpenJSONLSink(*traceOut); err != nil {
			log.Fatal(err)
		}
		tracer.SetSink(sink)
	}
	exec := core.NewDLTExecutor(cfg, sched, repo)
	built := make([]*core.DLTJob, 0, len(specs))
	for _, spec := range specs {
		j, err := workload.BuildDLTJob(spec)
		if err != nil {
			log.Fatal(err)
		}
		built = append(built, j)
		exec.Submit(j, 0)
	}
	fmt.Printf("running %d DLT jobs on %d GPUs under %s…\n\n", len(specs), *gpus, sched.Name())
	if err := exec.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %-12s %-12s %7s %8s %9s %-10s\n",
		"job", "kind", "criteria", "epochs", "accuracy", "end(min)", "status")
	for _, j := range built {
		fmt.Printf("%-28s %-12s %-12v %7d %7.1f%% %9.0f %-10s\n",
			j.ID(), j.Criteria().Kind, j.Criteria(), j.Epochs(),
			j.Accuracy()*100, j.EndTime().Minutes(), j.Status())
	}

	// Progress snapshots every 60 virtual minutes, Fig. 10-style.
	var times []sim.Time
	for t := sim.Time(3600); t <= exec.Engine().Now(); t += 3600 {
		times = append(times, t)
	}
	times = append(times, exec.Engine().Now())
	fmt.Printf("\n%10s %8s %6s %6s %6s %6s %6s %6s\n",
		"t(min)", "attained", "min", "p25", "p50", "p75", "max", "mean")
	for _, s := range metrics.SnapshotDLT(built, times) {
		v := s.Progress
		fmt.Printf("%10.0f %8d %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			s.At.Minutes(), s.Attained, v.Min, v.P25, v.P50, v.P75, v.Max, v.Mean)
	}
	fmt.Printf("\nvirtual makespan: %.0f minutes; TTR overhead: %v\n",
		exec.Engine().Now().Minutes(), exec.TTR().Overhead())
	if injector != nil {
		fmt.Println()
		fmt.Print(metrics.RenderRecovery(sched.Name(), exec.Recovery(), cfg.Store.Health()))
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
