// hyperparam-search reproduces the introduction's hyperparameter-
// optimization scenario: "resource arbitration could stop the trials that
// contain unpromising hyperparameter configurations prematurely and
// allocate more resources to the promising ones so that the best-
// performing hyperparameters can be discovered sooner."
//
// Sixteen trials of the same architecture — a grid over optimizer and
// learning rate — run under efficiency Rotary-DLT with accuracy-oriented
// criteria. The arbiter's estimates starve the hopeless trials; the run
// reports when the first trial reached the target and how many epochs the
// losing trials consumed, against a round-robin (SRF-tail) baseline.
package main

import (
	"fmt"
	"log"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/hpo"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

const targetAcc = 0.88

func buildTrials() []workload.DLTSpec {
	crit, err := criteria.NewAccuracy("ACC", targetAcc,
		criteria.Deadline{Value: 25, Unit: criteria.Epochs})
	if err != nil {
		log.Fatal(err)
	}
	var specs []workload.DLTSpec
	i := 0
	for _, opt := range []string{"sgd", "momentum", "adam", "adagrad"} {
		for _, lr := range []float64{0.1, 0.01, 0.001, 0.0001} {
			specs = append(specs, workload.DLTSpec{
				ID: fmt.Sprintf("trial-%02d-%s-lr%g", i, opt, lr),
				Config: dlt.Config{
					Model: "resnet-18", Dataset: "cifar10", BatchSize: 32,
					Optimizer: opt, LR: lr, Seed: uint64(100 + i),
				},
				Criteria: crit,
			})
			i++
		}
	}
	return specs
}

func run(label string, sched core.DLTScheduler, repo *estimate.Repository, specs []workload.DLTSpec) {
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
	if _, err := workload.SubmitDLT(specs, exec.Submit); err != nil {
		log.Fatal(err)
	}
	if err := exec.Run(); err != nil {
		log.Fatal(err)
	}

	firstWin := sim.Time(0)
	winners := 0
	totalEpochs := 0
	wastedEpochs := 0
	var best *core.DLTJob
	for _, j := range exec.Jobs() {
		totalEpochs += j.Epochs()
		if j.Status() == core.StatusAttainedStop {
			winners++
			if firstWin == 0 || j.EndTime() < firstWin {
				firstWin = j.EndTime()
			}
		} else {
			wastedEpochs += j.Epochs()
		}
		if best == nil || j.Accuracy() > best.Accuracy() {
			best = j
		}
	}
	fmt.Printf("\n%s\n", label)
	fmt.Printf("  first trial at %.0f%% accuracy after %.0f virtual minutes\n", targetAcc*100, firstWin.Minutes())
	fmt.Printf("  %d/%d trials reached the target; best config: %s (%.1f%%)\n",
		winners, len(specs), best.ID(), best.Accuracy()*100)
	fmt.Printf("  epochs spent: %d total, %d on losing trials\n", totalEpochs, wastedEpochs)
	fmt.Printf("  makespan: %.0f minutes\n", exec.Engine().Now().Minutes())
}

func main() {
	log.SetFlags(0)
	specs := buildTrials()
	fmt.Printf("hyperparameter search: %d trials of resnet-18, target %.0f%% accuracy\n",
		len(specs), targetAcc*100)

	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 40, 30, 5); err != nil {
		log.Fatal(err)
	}
	run("efficiency Rotary-DLT (prunes unpromising trials)",
		core.NewRotaryDLT(0, estimate.NewTEE(repo), estimate.NewTME(repo)), repo, specs)

	repo2 := estimate.NewRepository()
	run("round-robin baseline (every trial gets equal turns)",
		baselines.SRF{}, repo2, specs)

	successiveHalving(specs)
}

// successiveHalving runs the same grid through the hpo package's
// Hyperband-style controller, which formalizes the pruning the arbiter
// does organically above.
func successiveHalving(specs []workload.DLTSpec) {
	configs := make([]dlt.Config, len(specs))
	for i, s := range specs {
		configs[i] = s.Config
	}
	res, err := hpo.Search(hpo.DefaultConfig(), configs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsuccessive-halving controller (hpo package)")
	for _, r := range res.Rungs {
		fmt.Printf("  rung %d: %2d trials × %2d epochs, best accuracy %.1f%%\n",
			r.Rung, r.Trials, r.EpochsPer, r.BestAcc*100)
	}
	fmt.Printf("  winner: %s (%.1f%%) using %d total epochs in %.0f virtual minutes\n",
		res.Best.ID, res.Best.Accuracy()*100, res.TotalEpochs, res.VirtualSecs/60)
}
