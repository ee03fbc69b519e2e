package cliutil

import (
	"fmt"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// A Policy is one -policy name and the scheduler it builds over a history
// repository the caller has already seeded; the baselines ignore it.
type Policy[S any] struct {
	Name string
	New  func(repo *estimate.Repository) S
}

// A PolicyTable is one job kind's policies, in the order -policy help
// lists them.
type PolicyTable[S any] []Policy[S]

// AQPPolicies are the AQP policies of §V-A: the paper's Rotary-AQP and
// the four baselines it is compared against.
var AQPPolicies = PolicyTable[core.AQPScheduler]{
	{"rotary", func(repo *estimate.Repository) core.AQPScheduler {
		return core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
	}},
	{"relaqs", func(*estimate.Repository) core.AQPScheduler { return baselines.ReLAQS{} }},
	{"edf", func(*estimate.Repository) core.AQPScheduler { return baselines.EDFAQP{} }},
	{"laf", func(*estimate.Repository) core.AQPScheduler { return baselines.LAFAQP{} }},
	{"rr", func(*estimate.Repository) core.AQPScheduler { return baselines.RoundRobinAQP{} }},
}

// DLTPolicies are the DLT policies of §V-B: Rotary-DLT at Algorithm 3's
// threshold T = 50 %, 100 % and 0 %, and the three baselines.
var DLTPolicies = PolicyTable[core.DLTScheduler]{
	{"adaptive", rotaryDLT(0.5)},
	{"fairness", rotaryDLT(1)},
	{"efficiency", rotaryDLT(0)},
	{"srf", func(*estimate.Repository) core.DLTScheduler { return baselines.SRF{} }},
	{"bcf", func(*estimate.Repository) core.DLTScheduler { return baselines.BCF{} }},
	{"laf", func(*estimate.Repository) core.DLTScheduler { return baselines.LAFDLT{} }},
}

// rotaryDLT builds Rotary-DLT at threshold T with its epoch and memory
// estimators over the repository.
func rotaryDLT(threshold float64) func(*estimate.Repository) core.DLTScheduler {
	return func(repo *estimate.Repository) core.DLTScheduler {
		return core.NewRotaryDLT(threshold, estimate.NewTEE(repo), estimate.NewTME(repo))
	}
}

// Names lists the table's policy names in order.
func (t PolicyTable[S]) Names() []string {
	names := make([]string, len(t))
	for i, p := range t {
		names[i] = p.Name
	}
	return names
}

// New builds the named policy's scheduler over repo.
func (t PolicyTable[S]) New(name string, repo *estimate.Repository) (S, error) {
	for _, p := range t {
		if p.Name == name {
			return p.New(repo), nil
		}
	}
	var none S
	return none, fmt.Errorf("unknown policy %q", name)
}

// NewAQPPolicy seeds repo with one standalone run of every catalog query
// (§IV-A's historical data) and builds the AQP policy a -policy flag
// names over it.
func NewAQPPolicy(name string, repo *estimate.Repository, cat *tpch.Catalog) (core.AQPScheduler, error) {
	if err := workload.SeedAQPHistory(repo, cat, workload.RecommendedBatchRows(cat)); err != nil {
		return nil, err
	}
	return AQPPolicies.New(name, repo)
}
