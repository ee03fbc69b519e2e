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
	"strings"

	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-dlt: ")
	var (
		policy    = flag.String("policy", "adaptive", "policy: "+strings.Join(cliutil.DLTPolicies.Names(), ", "))
		jobs      = flag.Int("jobs", 30, "workload size")
		gpus      = flag.Int("gpus", 4, "GPU count")
		seed      = flag.Uint64("seed", 1, "random seed")
		history   = flag.Int("history", 40, "historical jobs to seed the repository with")
		trace     = flag.Int("trace", 0, "print the last N arbitration trace events")
		save      = flag.String("save-workload", "", "write the generated workload to this JSON file")
		load      = flag.String("load-workload", "", "run the workload from this JSON file instead of generating")
		faultSeed = flag.Uint64("fault-seed", 0, "fault-injection seed (0 = reuse -seed)")
		faultRate = flag.Float64("fault-rate", 0,
			"total per-opportunity fault probability (GPU crashes + checkpoint I/O faults), at most 0.3; 0 disables injection")
		traceOut   = flag.String("trace-out", "", "stream every trace event as JSON lines to this file")
		metricsOut = flag.String("metrics-out", "", "write the final metrics registry (Prometheus text format) to this file")
	)
	flag.Parse()
	rf := cliutil.RunFlags{Seed: *seed, FaultSeed: *faultSeed, FaultRate: *faultRate,
		Trace: *trace, TraceOut: *traceOut, MetricsOut: *metricsOut}
	if err := cliutil.ValidateAll(
		cliutil.OneOf("-policy", *policy, cliutil.DLTPolicies.Names()...),
		cliutil.MinInt("-jobs", *jobs, 1),
		cliutil.MinInt("-gpus", *gpus, 1),
		cliutil.MinInt("-history", *history, 0),
		rf.Validate(),
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
	sched, err := cliutil.DLTPolicies.New(*policy, repo)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultDLTExecConfig()
	cfg.GPUs = *gpus
	run, err := cliutil.Start(rf, &cfg.ExecConfig)
	if err != nil {
		log.Fatal(err)
	}
	exec := core.NewDLTExecutor(cfg, sched, repo)
	built, err := workload.SubmitDLT(specs, exec.Submit)
	if err != nil {
		log.Fatal(err)
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
	run.Report(sched.Name(), exec.Recovery())
	if err := run.Close(); err != nil {
		log.Fatal(err)
	}
}
