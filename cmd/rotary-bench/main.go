// Command rotary-bench regenerates every table and figure of the paper's
// evaluation section (§V), plus the ablation studies from DESIGN.md.
//
// Usage:
//
//	rotary-bench [-experiment all|fig1a|fig1b|fig6|fig7|fig8|fig9|fig10|fig11|table1|table2|table3|ablations]
//	             [-sf 0.02] [-runs 3] [-aqp-jobs 30] [-dlt-jobs 30] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rotary/internal/cliutil"
	"rotary/internal/experiments"
)

type runner struct {
	name string
	run  func(experiments.Config) (string, error)
}

func text[T any](f func(experiments.Config) (*T, error), get func(*T) string) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		r, err := f(cfg)
		if err != nil {
			return "", err
		}
		return get(r), nil
	}
}

var runners = []runner{
	{"fig1a", text(experiments.Fig1a, func(r *experiments.Fig1aResult) string { return r.Text })},
	{"fig1b", text(experiments.Fig1b, func(r *experiments.Fig1bResult) string { return r.Text })},
	{"table1", text(experiments.Table1, func(r *experiments.Table1Result) string { return r.Text })},
	{"fig6", text(experiments.Fig6, func(r *experiments.Fig6Result) string { return r.Text })},
	{"fig7", text(experiments.Fig7, func(r *experiments.Fig7Result) string { return r.Text })},
	{"fig8", text(experiments.Fig8, func(r *experiments.Fig8Result) string { return r.Text })},
	{"fig9", text(experiments.Fig9, func(r *experiments.Fig9Result) string { return r.Text })},
	{"table2", text(experiments.Table2, func(r *experiments.Table2Result) string { return r.Text })},
	{"fig10", text(experiments.Fig10, func(r *experiments.Fig10Result) string { return r.Text })},
	{"fig11", text(experiments.Fig11, func(r *experiments.Fig11Result) string { return r.Text })},
	{"table3", text(experiments.Table3, func(r *experiments.Table3Result) string { return r.Text })},
	{"ablation-epochs", text(experiments.AblationFixedEpochs, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-memory", text(experiments.AblationMemoryBlind, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-envelope", text(experiments.AblationEnvelopeWindow, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-estimator", text(experiments.AblationEstimatorSources, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-threshold", text(experiments.AblationThresholdSweep, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-materialization", text(experiments.AblationMaterialization, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-swap", text(experiments.AblationSwapOverhead, func(r *experiments.AblationResult) string { return r.Text })},
	{"ablation-arrival", text(experiments.AblationArrivalRate, func(r *experiments.AblationResult) string { return r.Text })},
	{"unified", text(experiments.Unified, func(r *experiments.UnifiedResult) string { return r.Text })},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-bench: ")
	var (
		experiment = flag.String("experiment", "all", "experiment id, 'ablations', or 'all'")
		sf         = flag.Float64("sf", 0.02, "TPC-H scale factor")
		runs       = flag.Int("runs", 3, "independent runs to average (the paper uses 3)")
		aqpJobs    = flag.Int("aqp-jobs", 30, "AQP workload size")
		dltJobs    = flag.Int("dlt-jobs", 30, "DLT workload size")
		seed       = flag.Uint64("seed", 1, "base random seed")
		traceOut   = flag.String("trace-out", "", "stream every executor trace event across all experiments as JSON lines to this file")
		metricsOut = flag.String("metrics-out", "", "write the final metrics registry (Prometheus text format) to this file")
	)
	flag.Parse()
	if err := cliutil.ValidateAll(
		cliutil.Positive("-sf", *sf),
		cliutil.MinInt("-runs", *runs, 1),
		cliutil.MinInt("-aqp-jobs", *aqpJobs, 1),
		cliutil.MinInt("-dlt-jobs", *dltJobs, 1),
	); err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}

	// Experiment helpers build executors internally; they all adopt the
	// default tracer Start installs, so every one of them streams into
	// the single JSONL sink.
	run, err := cliutil.Start(cliutil.RunFlags{TraceOut: *traceOut, MetricsOut: *metricsOut})
	if err != nil {
		log.Fatal(err)
	}

	cfg := experiments.Config{SF: *sf, Seed: *seed, Runs: *runs, AQPJobs: *aqpJobs, DLTJobs: *dltJobs}
	want := strings.ToLower(*experiment)
	matched := false
	for _, r := range runners {
		switch want {
		case "all":
		case "ablations":
			if !strings.HasPrefix(r.name, "ablation") {
				continue
			}
		default:
			if r.name != want {
				continue
			}
		}
		matched = true
		fmt.Printf("=== %s ===\n", r.name)
		out, err := r.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Println(out)
	}
	if !matched {
		log.Printf("unknown experiment %q", *experiment)
		fmt.Fprint(os.Stderr, "available:")
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, " %s", r.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if err := run.Close(); err != nil {
		log.Fatal(err)
	}
}
