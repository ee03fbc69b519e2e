package baselines

import (
	"sort"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
)

// dltPlace fills free GPUs from a ranked pending list, checking the
// analytic memory footprint (the baselines have no TME; they rely on the
// framework's knowledge of model size and batch, which in practice always
// fits the shrunk variants).
func dltPlace(ctx *core.DLTContext, ranked []*core.DLTJob) []core.DLTPlacement {
	var placements []core.DLTPlacement
	used := make(map[string]bool)
	for _, gpu := range ctx.FreeGPUs {
		for _, j := range ranked {
			if used[j.ID()] {
				continue
			}
			cfg := j.Trainer().Config()
			mb := dlt.PeakMemoryMB(j.Trainer().Spec(), cfg.BatchSize, cfg.Optimizer)
			if mb > gpu.MemMB {
				continue
			}
			placements = append(placements, core.DLTPlacement{Job: j, Device: gpu.ID, EstMemMB: mb})
			used[j.ID()] = true
			break
		}
	}
	return placements
}

// roundRobinRank orders the non-priority jobs least-recently-run first
// (fewest epochs, then arrival), the round-robin tail all three DLT
// baselines share.
func roundRobinRank(a, b *core.DLTJob) bool {
	if a.Epochs() != b.Epochs() {
		return a.Epochs() < b.Epochs()
	}
	return a.Arrival() < b.Arrival()
}

// SRF (Shortest Runtime First) "always runs the jobs with the shortest
// runtime completion criteria first and handles the other jobs following
// a round-robin strategy".
type SRF struct{}

// Name implements core.DLTScheduler.
func (SRF) Name() string { return "srf" }

// Place implements core.DLTScheduler.
func (SRF) Place(ctx *core.DLTContext) []core.DLTPlacement {
	ranked := append([]*core.DLTJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		ra, rb := a.Criteria().Kind == criteria.Runtime, b.Criteria().Kind == criteria.Runtime
		if ra != rb {
			return ra
		}
		if ra && rb {
			return a.MaxEpochs() < b.MaxEpochs()
		}
		return roundRobinRank(a, b)
	})
	return dltPlace(ctx, ranked)
}

// BCF (Biggest Convergence First) "always runs the jobs with the biggest
// convergence completion criteria first and handles the other jobs
// following a round-robin strategy". A bigger delta converges earlier, so
// BCF is the convergence analogue of shortest-first.
type BCF struct{}

// Name implements core.DLTScheduler.
func (BCF) Name() string { return "bcf" }

// Place implements core.DLTScheduler.
func (BCF) Place(ctx *core.DLTContext) []core.DLTPlacement {
	ranked := append([]*core.DLTJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		ca, cb := a.Criteria().Kind == criteria.Convergence, b.Criteria().Kind == criteria.Convergence
		if ca != cb {
			return ca
		}
		if ca && cb {
			return a.Criteria().Threshold > b.Criteria().Threshold
		}
		return roundRobinRank(a, b)
	})
	return dltPlace(ctx, ranked)
}

// LAFDLT (Lowest Accuracy First) "always runs the jobs with the lowest
// accuracy completion criteria first and handles the other jobs following
// a round-robin strategy".
type LAFDLT struct{}

// Name implements core.DLTScheduler.
func (LAFDLT) Name() string { return "laf" }

// Place implements core.DLTScheduler.
func (LAFDLT) Place(ctx *core.DLTContext) []core.DLTPlacement {
	ranked := append([]*core.DLTJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		aa, ab := a.Criteria().Kind == criteria.Accuracy, b.Criteria().Kind == criteria.Accuracy
		if aa != ab {
			return aa
		}
		if aa && ab {
			return a.Criteria().Threshold < b.Criteria().Threshold
		}
		return roundRobinRank(a, b)
	})
	return dltPlace(ctx, ranked)
}
