// Package hpo implements a successive-halving hyperparameter-optimization
// controller on top of the Rotary framework — the application the paper's
// introduction motivates: "a set of hyperparameter configurations are
// sampled from a hyperparameter space and formed a number of training
// trials that run iteratively … resource arbitration could stop the
// trials that contain unpromising hyperparameter configurations
// prematurely and allocate more resources to the promising ones so that
// the best-performing hyperparameters can be discovered sooner." The
// rung structure follows Hyperband's successive halving (the paper's
// [23]).
//
// Each rung submits the surviving trials with runtime-oriented completion
// criteria ("FOR r EPOCHS") to a DLT executor under efficiency
// Rotary-DLT; after the rung completes, the top 1/eta fraction by
// evaluation accuracy advances with an eta-times larger epoch budget.
// Trials keep their trained state across rungs (they are resumed, not
// restarted).
package hpo

import (
	"fmt"
	"sort"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
)

// Trial is one hyperparameter configuration under evaluation.
type Trial struct {
	ID     string
	Config dlt.Config

	job      *dlt.Job
	accuracy float64
	epochs   int
	// rungDropped records the rung at which the trial was eliminated
	// (-1 = survived to the end).
	rungDropped int
}

// Accuracy reports the trial's latest evaluation accuracy.
func (t *Trial) Accuracy() float64 { return t.accuracy }

// Epochs reports the total epochs the trial trained across all rungs.
func (t *Trial) Epochs() int { return t.epochs }

// RungDropped reports the rung index at which the trial was eliminated,
// or -1 if it survived every rung.
func (t *Trial) RungDropped() int { return t.rungDropped }

// Config parameterizes a search.
type Config struct {
	// InitialEpochs is the epoch budget of the first rung (r in
	// successive halving).
	InitialEpochs int
	// Eta is the elimination factor: each rung keeps ⌈n/Eta⌉ trials and
	// multiplies the epoch budget by Eta.
	Eta int
	// MaxEpochs caps any single trial's cumulative training.
	MaxEpochs int
}

// DefaultConfig returns a 1-epoch-rung, eta-3 search.
func DefaultConfig() Config {
	return Config{
		InitialEpochs: 1,
		Eta:           3,
		MaxEpochs:     30,
	}
}

// Result summarizes a finished search.
type Result struct {
	// Best is the winning trial.
	Best *Trial
	// Trials holds every trial with its final state, best first.
	Trials []*Trial
	// Rungs records the per-rung survivor counts and epoch budgets.
	Rungs []RungSummary
	// TotalEpochs is the GPU work spent across all trials.
	TotalEpochs int
	// VirtualSecs is the search's virtual wall time.
	VirtualSecs float64
}

// RungSummary describes one elimination round.
type RungSummary struct {
	Rung      int
	Trials    int
	EpochsPer int
	BestAcc   float64
}

// Search runs successive halving over the given configurations.
func Search(cfg Config, configs []dlt.Config) (*Result, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: no trial configurations")
	}
	if cfg.Eta < 2 {
		cfg.Eta = 3
	}
	if cfg.InitialEpochs < 1 {
		cfg.InitialEpochs = 1
	}
	if cfg.MaxEpochs < cfg.InitialEpochs {
		cfg.MaxEpochs = cfg.InitialEpochs
	}
	// The estimators learn from the search's own history: each rung's
	// trials join the repository the next rung estimates from.
	repo := estimate.NewRepository()

	trials := make([]*Trial, len(configs))
	for i, c := range configs {
		job, err := dlt.NewJob(c)
		if err != nil {
			return nil, fmt.Errorf("hpo: trial %d: %w", i, err)
		}
		trials[i] = &Trial{
			ID:          fmt.Sprintf("trial-%02d-%s-%s-lr%g", i, c.Model, c.Optimizer, c.LR),
			Config:      c,
			job:         job,
			rungDropped: -1,
		}
	}

	res := &Result{}
	survivors := trials
	budget := cfg.InitialEpochs
	var elapsed float64
	for rung := 0; len(survivors) > 0; rung++ {
		if err := runRung(repo, survivors, budget, &elapsed); err != nil {
			return nil, err
		}
		best := 0.0
		for _, t := range survivors {
			if t.accuracy > best {
				best = t.accuracy
			}
		}
		res.Rungs = append(res.Rungs, RungSummary{
			Rung: rung, Trials: len(survivors), EpochsPer: budget, BestAcc: best,
		})
		if len(survivors) == 1 || survivors[0].epochs >= cfg.MaxEpochs {
			break
		}
		// Keep the top ⌈n/Eta⌉ by accuracy.
		sort.SliceStable(survivors, func(a, b int) bool {
			return survivors[a].accuracy > survivors[b].accuracy
		})
		keep := (len(survivors) + cfg.Eta - 1) / cfg.Eta
		if keep < 1 {
			keep = 1
		}
		for _, t := range survivors[keep:] {
			t.rungDropped = rung
		}
		survivors = survivors[:keep]
		budget *= cfg.Eta
		if remaining := cfg.MaxEpochs - survivors[0].epochs; budget > remaining {
			budget = remaining
		}
		if budget <= 0 {
			break
		}
	}

	sort.SliceStable(trials, func(a, b int) bool { return trials[a].accuracy > trials[b].accuracy })
	res.Trials = trials
	res.Best = trials[0]
	for _, t := range trials {
		res.TotalEpochs += t.epochs
	}
	res.VirtualSecs = elapsed
	return res, nil
}

// runRung trains every surviving trial for budget more epochs on a fresh
// executor over the paper's 4-GPU cluster under efficiency Rotary-DLT,
// carrying the trials' trained state (via checkpoints) across rungs.
func runRung(repo *estimate.Repository, survivors []*Trial, budget int, elapsed *float64) error {
	sched := core.NewRotaryDLT(0, estimate.NewTEE(repo, 3), estimate.NewTME(repo, 3))
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
	pairs := make([]pair, 0, len(survivors))
	for _, t := range survivors {
		// Resume the trial's trained state in a fresh trainer.
		state, err := t.job.Checkpoint()
		if err != nil {
			return fmt.Errorf("hpo: checkpoint %s: %w", t.ID, err)
		}
		trainer, err := dlt.NewJob(t.Config)
		if err != nil {
			return err
		}
		if err := trainer.Restore(state); err != nil {
			return fmt.Errorf("hpo: restore %s: %w", t.ID, err)
		}
		crit, err := criteria.NewRuntime(criteria.Deadline{Value: float64(budget), Unit: criteria.Epochs})
		if err != nil {
			return err
		}
		j, err := core.NewDLTJob(t.ID, trainer, crit)
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{t, j})
		exec.Submit(j, 0)
	}
	if err := exec.Run(); err != nil {
		return err
	}
	for _, p := range pairs {
		p.trial.job = p.job.Trainer()
		p.trial.accuracy = p.job.Accuracy()
		p.trial.epochs = p.job.Trainer().EpochsTrained()
	}
	*elapsed += exec.Engine().Now().Seconds()
	return nil
}

// pair binds a trial to its per-rung arbitrated job.
type pair struct {
	trial *Trial
	job   *core.DLTJob
}
