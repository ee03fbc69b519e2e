package cliutil

import (
	"fmt"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// NewAQPPolicy builds the AQP arbitration policy a -policy flag names:
// the paper's Rotary-AQP ("rotary"), whose progress estimator learns from
// repo — seeded here with the catalog's history — or one of the
// baselines ("relaqs", "edf", "laf", "rr").
func NewAQPPolicy(name string, repo *estimate.Repository, cat *tpch.Catalog) (core.AQPScheduler, error) {
	switch name {
	case "rotary":
		if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
			return nil, err
		}
		return core.NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3)), nil
	case "relaqs":
		return baselines.ReLAQS{}, nil
	case "edf":
		return baselines.EDFAQP{}, nil
	case "laf":
		return baselines.LAFAQP{}, nil
	case "rr":
		return baselines.RoundRobinAQP{}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
