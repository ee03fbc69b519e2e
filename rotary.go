// Package rotary is a from-scratch Go implementation of Rotary, the
// resource-arbitration framework for progressive iterative analytics
// (Liu, Elmore, Franklin, Krishnan — ICDE 2023). The system lives in
// the internal packages; cmd/ and examples/ call them directly.
//
// This package holds only the three names that benchmark/probes/twin.go
// (the benchmark, a separate module) still imports. It goes away once a
// benchmark-only change points that file at core and estimate.
package rotary

import (
	"rotary/internal/core"
	"rotary/internal/estimate"
)

var (
	// NewRepository returns an in-memory historical-job store.
	NewRepository = estimate.NewRepository
	// NewRotaryAQP returns the Algorithm 2 scheduler.
	NewRotaryAQP = core.NewRotaryAQP
)

// NewAccuracyProgress returns the §IV-A progress estimator. The count is
// ignored: the estimator always fits the top 3 similar records.
func NewAccuracyProgress(repo *estimate.Repository, _ int) *estimate.AccuracyProgress {
	return estimate.NewAccuracyProgress(repo)
}
