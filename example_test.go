package rotary_test

import (
	"fmt"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/workload"
)

// Parsing the Fig. 4 completion-criteria clause off a user command.
func Example_parseCriteria() {
	cmd, crit, err := criteria.Parse(
		"TRAIN RESNET-18 ON CIFAR10 ACC MIN 90% WITHIN 25 EPOCHS")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(cmd)
	fmt.Println(crit.Kind, crit)
	// Output:
	// TRAIN RESNET-18 ON CIFAR10
	// accuracy ACC MIN 90% WITHIN 25 epochs
}

// Running one arbitrated training job end to end on the simulated
// cluster. The convergence-oriented criterion completes the job once the
// per-epoch accuracy delta falls below 0.01.
func Example_dltJob() {
	repo := estimate.NewRepository()
	sched := core.NewRotaryDLT(0.5, estimate.NewTEE(repo), estimate.NewTME(repo))
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)

	trainer, _ := dlt.NewJob(dlt.Config{
		Model: "mobilenet", Dataset: "cifar10", BatchSize: 32,
		Optimizer: "sgd", LR: 0.01, Seed: 7,
	})
	crit, _ := criteria.NewConvergence("ACC", 0.01,
		criteria.Deadline{Value: 30, Unit: criteria.Epochs})
	job, _ := core.NewDLTJob("demo", trainer, crit)
	exec.Submit(job, 0)
	if err := exec.Run(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(job.Status(), job.ConvergedAtEpoch() > 0)
	// Output: attained true
}

// The Table I and Table II workload generators sample the paper's
// parameter spaces deterministically.
func Example_workloads() {
	aqp := workload.GenerateAQP(workload.DefaultAQPWorkload(3, 1))
	for _, s := range aqp {
		fmt.Printf("%s class=%s acc=%.0f%% deadline=%.0fs\n",
			s.Query, s.Class, s.Accuracy*100, s.DeadlineSecs)
	}
	// Output:
	// q21 class=heavy acc=55% deadline=3060s
	// q22 class=light acc=75% deadline=360s
	// q18 class=heavy acc=85% deadline=3060s
}
