// dlt-cluster runs the Table II survey-based DLT workload on a simulated
// 4-GPU cluster under the three Rotary-DLT variants — fairness (T=100%),
// adaptive (T=50%), and efficiency (T=0%) — and prints the Fig. 10-style
// attainment-progress snapshots side by side, showing the
// fairness/efficiency trade the threshold T tunes.
package main

import (
	"fmt"
	"log"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	const jobs = 20
	specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(jobs, 11))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("survey-based workload: %d jobs\n", jobs)

	variants := []struct {
		label string
		t     float64
	}{
		{"fairness  (T=100%)", 1.0},
		{"adaptive  (T= 50%)", 0.5},
		{"efficiency(T=  0%)", 0.0},
	}
	for _, v := range variants {
		repo := estimate.NewRepository()
		if err := workload.SeedDLTHistory(repo, 40, 30, 11); err != nil {
			log.Fatal(err)
		}
		sched := core.NewRotaryDLT(v.t, estimate.NewTEE(repo), estimate.NewTME(repo))
		exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
		built, err := workload.SubmitDLT(specs, exec.Submit)
		if err != nil {
			log.Fatal(err)
		}
		if err := exec.Run(); err != nil {
			log.Fatal(err)
		}

		var times []sim.Time
		for t := sim.Time(3600); t < exec.Engine().Now(); t += 3600 {
			times = append(times, t)
		}
		times = append(times, exec.Engine().Now())
		fmt.Printf("\n%s — makespan %.0f min\n", v.label, exec.Engine().Now().Minutes())
		fmt.Printf("%10s %8s %10s %10s %10s\n", "t(min)", "attained", "min-prog", "median", "mean")
		for _, s := range metrics.SnapshotDLT(built, times) {
			fmt.Printf("%10.0f %8d %10.2f %10.2f %10.2f\n",
				s.At.Minutes(), s.Attained, s.Progress.Min, s.Progress.P50, s.Progress.Mean)
		}
	}
	fmt.Println("\nfairness pushes the minimum progress up fastest; efficiency completes")
	fmt.Println("the most jobs early; adaptive switches from the former to the latter")
	fmt.Println("once every job clears the threshold.")
}
