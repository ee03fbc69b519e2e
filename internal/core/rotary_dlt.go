package core

import (
	"sort"

	"rotary/internal/dlt"
	"rotary/internal/estimate"
)

// RotaryDLT implements Algorithm 3, the threshold-based adaptive resource
// arbitration for DLT:
//
//   - while any job is below the attainment-progress threshold T, the
//     policy is fairness-like: the priority queue prefers the LOWEST
//     progress job, so no single job falls far behind;
//   - once every job either meets T or is considered converged, the
//     policy becomes efficiency-centric: the queue prefers the HIGHEST
//     progress job, completing promising jobs quickly.
//
// T = 100% is the pure-fairness variant, T = 0% the pure-efficiency
// variant, T = 50% the adaptive variant of Fig. 10.
type RotaryDLT struct {
	// Threshold is T in [0, 1].
	Threshold float64
	// TEE estimates the epochs needed per job (Algorithm 4's ê).
	TEE *estimate.TEE
	// TME estimates peak memory for placement; nil falls back to the
	// analytic model (used by tests).
	TME *estimate.TME
	// TrialFirst gives never-run jobs one trial epoch before estimates are
	// trusted, matching the trial phase Fig. 11 describes.
	TrialFirst bool
}

// NewRotaryDLT returns the variant with the given threshold T.
func NewRotaryDLT(threshold float64, tee *estimate.TEE, tme *estimate.TME) *RotaryDLT {
	if threshold < 0 {
		threshold = 0
	}
	if threshold > 1 {
		threshold = 1
	}
	return &RotaryDLT{Threshold: threshold, TEE: tee, TME: tme, TrialFirst: true}
}

// Name implements DLTScheduler.
func (r *RotaryDLT) Name() string {
	switch {
	case r.Threshold >= 1:
		return "rotary-dlt-fairness"
	case r.Threshold <= 0:
		return "rotary-dlt-efficiency"
	default:
		return "rotary-dlt-adaptive"
	}
}

// EstimateMemMB returns the TME prediction for the job, falling back to
// the analytic model when the repository has no same-dataset history.
func (r *RotaryDLT) EstimateMemMB(j *DLTJob) float64 {
	q := j.SimilarityQuery()
	if r.TME != nil {
		if mb, ok := r.TME.EstimateMB(q.Dataset, q.ParamsM, q.BatchSize); ok {
			return mb
		}
	}
	cfg := j.Trainer().Config()
	return dlt.PeakMemoryMB(j.Trainer().Spec(), cfg.BatchSize, cfg.Optimizer)
}

// Place implements DLTScheduler (Algorithm 3).
func (r *RotaryDLT) Place(ctx *DLTContext) []DLTPlacement {
	if len(ctx.Pending) == 0 || len(ctx.FreeGPUs) == 0 {
		return nil
	}

	// "if all jobs from W meet T": active jobs = pending ∪ running;
	// converged jobs count as meeting T.
	allMeetT := true
	progress := make(map[string]float64, len(ctx.Pending))
	check := func(j *DLTJob) float64 {
		phi := j.AttainmentProgress(r.TEE)
		if phi < r.Threshold && j.ConvergedAtEpoch() == 0 {
			allMeetT = false
		}
		return phi
	}
	for _, j := range ctx.Pending {
		progress[j.ID()] = check(j)
	}
	for _, j := range ctx.Running {
		check(j)
	}

	pq := make([]*DLTJob, len(ctx.Pending))
	copy(pq, ctx.Pending)
	sort.SliceStable(pq, func(a, b int) bool {
		ja, jb := pq[a], pq[b]
		if r.TrialFirst {
			// Trial phase: jobs with no observed epoch run first so the
			// estimators get real-time data.
			ta, tb := ja.Epochs() == 0, jb.Epochs() == 0
			if ta != tb {
				return ta
			}
		}
		if allMeetT {
			return progress[ja.ID()] > progress[jb.ID()] // efficiency: highest φ first
		}
		return progress[ja.ID()] < progress[jb.ID()] // fairness: lowest φ first
	})

	var placements []DLTPlacement
	used := make(map[string]bool)
	for _, gpu := range ctx.FreeGPUs {
		for _, j := range pq {
			if used[j.ID()] {
				continue
			}
			mb := r.EstimateMemMB(j)
			if mb > gpu.MemMB {
				continue
			}
			placements = append(placements, DLTPlacement{Job: j, Device: gpu.ID, EstMemMB: mb})
			used[j.ID()] = true
			break
		}
	}
	return placements
}
