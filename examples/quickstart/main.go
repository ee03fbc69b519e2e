// Quickstart: submit three progressive iterative analytic jobs — one per
// completion-criteria kind from Fig. 3 — to a tiny Rotary-managed system
// and watch the arbiter run them to their criteria.
package main

import (
	"fmt"
	"log"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)

	// The completion-criteria DSL of Fig. 4: criteria are add-ons to the
	// regular command, parsed off without touching the command itself.
	commands := []string{
		"SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) FROM LINEITEM ACC MIN 80% WITHIN 900 SECONDS",
		"TRAIN RESNET-18 ON CIFAR10 ACC DELTA 0.003 WITHIN 30 EPOCHS",
		"TRAIN MOBILENET ON CIFAR10 FOR 10 EPOCHS",
	}
	for _, cmd := range commands {
		prefix, crit, err := criteria.Parse(cmd)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("command %q\n  → criteria: %v (%v-oriented)\n", prefix, crit, crit.Kind)
	}

	// --- An AQP job under Rotary-AQP -----------------------------------
	fmt.Println("\n-- Rotary-AQP: one online-aggregation job --")
	ds := tpch.Generate(0.005, 42)
	cat := tpch.NewCatalog(ds, 42)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		log.Fatal(err)
	}
	sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)

	_, crit, err := criteria.Parse(commands[0])
	if err != nil {
		log.Fatal(err)
	}
	q, err := cat.NewQuery("q6") // the revenue-forecast aggregation
	if err != nil {
		log.Fatal(err)
	}
	job, err := core.NewAQPJob(core.AQPJobConfig{
		ID: "quickstart-q6", Query: q, Criteria: crit, Class: "light",
		BatchRows: workload.RecommendedBatchRows(cat),
	})
	if err != nil {
		log.Fatal(err)
	}
	exec.Submit(job, 0)
	if err := exec.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("q6 stopped %v after %d epochs, %.1f%% of data, estimated accuracy %.1f%%\n",
		job.Status(), job.Epochs(), job.Query().DataProgress()*100, job.EstimatedAccuracy()*100)

	// --- Two DLT jobs under Rotary-DLT ---------------------------------
	fmt.Println("\n-- Rotary-DLT: convergence- and runtime-oriented training --")
	dltRepo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(dltRepo, 20, 30, 42); err != nil {
		log.Fatal(err)
	}
	dltSched := core.NewRotaryDLT(0.5, estimate.NewTEE(dltRepo), estimate.NewTME(dltRepo))
	dltExec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), dltSched, dltRepo)

	for i, cmd := range commands[1:] {
		_, crit, err := criteria.Parse(cmd)
		if err != nil {
			log.Fatal(err)
		}
		model := "resnet-18"
		if i == 1 {
			model = "mobilenet"
		}
		trainer, err := dlt.NewJob(dlt.Config{
			Model: model, Dataset: "cifar10", BatchSize: 32,
			Optimizer: "sgd", LR: 0.01, Seed: uint64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		j, err := core.NewDLTJob(fmt.Sprintf("quickstart-%s", model), trainer, crit)
		if err != nil {
			log.Fatal(err)
		}
		dltExec.Submit(j, 0)
	}
	if err := dltExec.Run(); err != nil {
		log.Fatal(err)
	}
	for _, j := range dltExec.Jobs() {
		fmt.Printf("%s: %v after %d epochs at %.1f%% accuracy (%.1f virtual minutes)\n",
			j.ID(), j.Status(), j.Epochs(), j.Accuracy()*100, j.EndTime().Minutes())
	}
}
