// Package baselines implements every comparison policy from the paper's
// evaluation: round-robin, EDF, LAF, and a ReLAQS re-implementation for
// the AQP system (§V-A), and SRF, BCF, and LAF for the DLT system (§V-B).
package baselines

import (
	"sort"

	"rotary/internal/core"
	"rotary/internal/estimate"
)

// assignByRank grants one thread per job in rank order (respecting the
// memory reservation when reserveMem is set), then hands out the
// remaining threads one at a time in the same order up to maxThreads per
// job. It is the shared machinery of the simple AQP baselines.
func assignByRank(ctx *core.AQPContext, ranked []*core.AQPJob, reserveMem bool, maxThreads int) []core.AQPGrant {
	freeThreads := ctx.FreeThreads
	freeMem := ctx.FreeMemMB
	grants := make([]core.AQPGrant, 0, len(ranked))
	index := make(map[string]int)
	for _, j := range ranked {
		if freeThreads == 0 {
			break
		}
		reserve := 0.0
		if reserveMem {
			reserve = j.EstMemMB()
			if reserve > freeMem {
				continue
			}
		}
		grants = append(grants, core.AQPGrant{Job: j, Threads: 1, ReserveMemMB: reserve})
		index[j.ID()] = len(grants)
		freeThreads--
		freeMem -= reserve
	}
	// Extras fill the highest-ranked jobs to their cap first, mirroring
	// the greedy priority walk of Rotary's phase 2 so the baselines
	// differ only in their ranking rule.
	for _, j := range ranked {
		if freeThreads == 0 {
			break
		}
		gi, ok := index[j.ID()]
		if !ok {
			continue
		}
		for grants[gi-1].Threads < maxThreads && freeThreads > 0 {
			grants[gi-1].Threads++
			freeThreads--
		}
	}
	return grants
}

// RoundRobinAQP is the vanilla baseline: "allocates one core to each job
// in turn until there are no more cores and run them for an epoch per
// time until they reach their completion criteria".
type RoundRobinAQP struct{}

// Name implements core.AQPScheduler.
func (RoundRobinAQP) Name() string { return "round-robin" }

// Assign implements core.AQPScheduler.
func (RoundRobinAQP) Assign(ctx *core.AQPContext) []core.AQPGrant {
	ranked := append([]*core.AQPJob(nil), ctx.Pending...)
	// In turn: FIFO by arrival; fewer completed epochs first so everyone
	// cycles.
	sort.SliceStable(ranked, func(a, b int) bool {
		if ranked[a].Epochs() != ranked[b].Epochs() {
			return ranked[a].Epochs() < ranked[b].Epochs()
		}
		return ranked[a].Arrival() < ranked[b].Arrival()
	})
	return assignByRank(ctx, ranked, true, 1)
}

// EDFAQP always prioritizes the jobs with the earliest absolute deadline.
type EDFAQP struct{}

// Name implements core.AQPScheduler.
func (EDFAQP) Name() string { return "edf" }

// Assign implements core.AQPScheduler.
func (EDFAQP) Assign(ctx *core.AQPContext) []core.AQPGrant {
	ranked := append([]*core.AQPJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(a, b int) bool {
		da := ranked[a].Arrival().Seconds() + ranked[a].DeadlineSecs()
		db := ranked[b].Arrival().Seconds() + ranked[b].DeadlineSecs()
		return da < db
	})
	return assignByRank(ctx, ranked, true, 8)
}

// LAFAQP always prioritizes the jobs with the least current (estimated)
// accuracy.
type LAFAQP struct{}

// Name implements core.AQPScheduler.
func (LAFAQP) Name() string { return "laf" }

// Assign implements core.AQPScheduler.
func (LAFAQP) Assign(ctx *core.AQPContext) []core.AQPGrant {
	ranked := append([]*core.AQPJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(a, b int) bool {
		return ranked[a].EstimatedAccuracy() < ranked[b].EstimatedAccuracy()
	})
	return assignByRank(ctx, ranked, true, 8)
}

// ReLAQS re-implements the state-of-the-art comparison system
// (Stafman et al., Middleware'19): it schedules CPU cores to the jobs
// with the most potential for improvement, estimating that potential from
// the job's own recent results only (no historical data), ignores memory
// (it "only schedules CPU cores"), and uses fixed running epochs.
type ReLAQS struct{}

// Name implements core.AQPScheduler.
func (ReLAQS) Name() string { return "relaqs" }

// Assign implements core.AQPScheduler.
func (ReLAQS) Assign(ctx *core.AQPContext) []core.AQPGrant {
	ranked := append([]*core.AQPJob(nil), ctx.Pending...)
	improvement := make(map[string]float64, len(ranked))
	for _, j := range ranked {
		improvement[j.ID()] = relaqsImprovement(j)
	}
	sort.SliceStable(ranked, func(a, b int) bool {
		return improvement[ranked[a].ID()] > improvement[ranked[b].ID()]
	})
	// Fixed epochs: ReLAQS does not adapt running-epoch length.
	for _, j := range ranked {
		j.SetEpochBatches(4)
	}
	return assignByRank(ctx, ranked, false, 8)
}

// relaqsImprovement predicts next-epoch accuracy gain from the slope of
// the job's last two real-time results — exactly the "only uses real-time
// results to predict the progress for the next running epoch" behaviour
// the paper contrasts Rotary-AQP against. Fresh jobs score highest
// (unknown potential), which is also what gives ReLAQS its cold-start
// bias.
func relaqsImprovement(j *core.AQPJob) float64 {
	curve := j.RealtimeCurve()
	if len(curve) < 2 {
		return 1
	}
	a, b := curve[len(curve)-2], curve[len(curve)-1]
	dt := b.X - a.X
	if dt <= 0 {
		return 0
	}
	slope := (b.Y - a.Y) / dt
	if slope < 0 {
		slope = 0
	}
	perEpoch := j.ProcessingSecs() / float64(j.Epochs())
	return slope * perEpoch
}

// RandomRotaryAQP is the Fig. 9 configuration: Rotary-AQP's Algorithm 2
// with the misleading uniform-random progress estimator swapped in.
func RandomRotaryAQP(src interface{ Float64() float64 }) *core.RotaryAQP {
	return core.NewRotaryAQP(estimate.NewRandomProgress(src))
}
