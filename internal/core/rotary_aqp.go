package core

import (
	"math"
	"sort"

	"rotary/internal/aqp"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// RotaryAQP implements Algorithm 2, the Rotary-AQP resource arbitration:
//
//  1. estimate each pending job's memory consumption m̂ and assign its
//     adaptive running epoch (proportional to m̂, §IV-A);
//  2. estimate each job's accuracy progress φ̂ for the next epoch by the
//     joint historical+real-time fit and build a priority queue;
//  3. allocate one hardware thread to every job that fits in memory, then
//     allocate the remaining threads one at a time to the highest-φ̂ jobs.
type RotaryAQP struct {
	// Estimator predicts next-epoch accuracy progress. The Fig. 9
	// sensitivity experiment swaps in estimate.RandomProgress here.
	Estimator estimate.ProgressEstimator
	// AdaptiveEpochs enables §IV-A's memory-proportional running epochs
	// (ablation: fixed epochs when false).
	AdaptiveEpochs bool
	// MemoryAware books memory reservations (ablation: oversubscribe when
	// false, the ReLAQS-style behaviour).
	MemoryAware bool
	// BaseEpochBatches is the running-epoch length of the lightest job.
	BaseEpochBatches int
	// MaxThreadsPerJob caps phase-two growth so one job cannot absorb the
	// whole pool.
	MaxThreadsPerJob int
}

// NewRotaryAQP returns the paper-default configuration.
func NewRotaryAQP(est estimate.ProgressEstimator) *RotaryAQP {
	return &RotaryAQP{
		Estimator:        est,
		AdaptiveEpochs:   true,
		MemoryAware:      true,
		BaseEpochBatches: 4,
		MaxThreadsPerJob: 8,
	}
}

// Name implements AQPScheduler.
func (r *RotaryAQP) Name() string { return "rotary-aqp" }

// Assign implements AQPScheduler (Algorithm 2).
func (r *RotaryAQP) Assign(ctx *AQPContext) []AQPGrant {
	if len(ctx.Pending) == 0 || ctx.FreeThreads == 0 {
		return nil
	}

	// Adaptive running epochs: every job's epoch length is proportionate
	// to its estimated memory consumption, normalized by the lightest job
	// in sight so long-running heavy jobs return comparable intermediate
	// results (§IV-A).
	if r.AdaptiveEpochs {
		ref := math.Inf(1)
		for _, jobs := range [2][]*AQPJob{ctx.Pending, ctx.Running} {
			for _, j := range jobs {
				if m := j.EstMemMB(); m > 0 && m < ref {
					ref = m
				}
			}
		}
		if !math.IsInf(ref, 1) {
			for _, j := range ctx.Pending {
				ratio := j.EstMemMB() / ref
				n := int(math.Ceil(float64(r.BaseEpochBatches) * ratio))
				if n > 16*r.BaseEpochBatches {
					n = 16 * r.BaseEpochBatches
				}
				if n < r.BaseEpochBatches {
					n = r.BaseEpochBatches
				}
				j.SetEpochBatches(n)
			}
		}
	}

	// Priority: estimated accuracy progress after the next running epoch,
	// gated by deadline feasibility.
	type scored struct {
		job   *AQPJob
		phi   float64
		grant int // index+1 of the job's grant; 0 while ungranted
	}
	pq := make([]scored, 0, len(ctx.Pending))
	for _, j := range ctx.Pending {
		pq = append(pq, scored{job: j, phi: r.priority(ctx.Now, j)})
	}
	sort.SliceStable(pq, func(a, b int) bool { return pq[a].phi > pq[b].phi })

	// Phase 1: one hardware thread per fitting job, in priority order.
	freeThreads := ctx.FreeThreads
	freeMem := ctx.FreeMemMB
	grants := make([]AQPGrant, 0, len(pq))
	for i, s := range pq {
		if freeThreads == 0 {
			break
		}
		reserve := s.job.EstMemMB()
		if !r.MemoryAware {
			reserve = 0
		}
		if reserve > freeMem {
			continue // does not fit in memory; deferred
		}
		grants = append(grants, AQPGrant{Job: s.job, Threads: 1, ReserveMemMB: reserve})
		pq[i].grant = len(grants)
		freeThreads--
		freeMem -= reserve
	}

	// Phase 2: remaining threads go to the highest-priority granted jobs
	// first, each filled to the per-job cap before the next is grown —
	// Algorithm 2's "allocate extra 1 hardware thread to job j_k" walked
	// in priority-queue order.
	for _, s := range pq {
		if freeThreads == 0 {
			break
		}
		gi := s.grant
		if gi == 0 {
			continue
		}
		for grants[gi-1].Threads < r.MaxThreadsPerJob && freeThreads > 0 {
			grants[gi-1].Threads++
			freeThreads--
		}
	}
	return grants
}

// priority scores a pending job for the queue. This is where the
// progress estimator earns its keep (§III-C): the fitted progress-runtime
// curve gives the job's achievable accuracy rate, from which the policy
// derives the speedup the job needs to attain its threshold before its
// deadline. The bands, highest first:
//
//	2.5        trial — never-run jobs go first so the estimator gets
//	           real-time data;
//	2.0        finishing — jobs already at their (margined) threshold
//	           free their resources next epoch;
//	(1, 2]     feasible — ranked by required speedup, so extra threads
//	           flow to the jobs that genuinely need them to attain;
//	[0, 0.5)   hopeless — the curve cannot reach the threshold in time
//	           even at full speedup; resources are constrained, but
//	           deferred jobs age back in so the envelope can settle
//	           their fate early instead of them waiting to the deadline.
func (r *RotaryAQP) priority(now sim.Time, j *AQPJob) float64 {
	if j.Epochs() == 0 {
		return 2.5
	}
	thr := j.Criteria().Threshold
	hopeless := func(base float64) float64 {
		aging := (now - j.LastRunAt()).Seconds() / j.DeadlineSecs()
		if aging > 1 {
			aging = 1
		}
		if aging < 0 {
			aging = 0
		}
		return base + 0.3*aging
	}

	target := thr * 1.03
	if target > thr+0.03 {
		target = thr + 0.03
	}
	a0 := j.EstimatedAccuracy()
	if thr <= 0 || a0 >= target {
		return 2.0
	}
	remaining := j.DeadlineSecs() - (now - j.Arrival()).Seconds()
	if remaining <= 0 {
		return 0
	}

	// Achievable accuracy rate per single-thread-equivalent second from
	// the fitted curve; the job's own last stretch is the fallback.
	t := j.NormProcessingSecs()
	const horizon = 600.0
	rt := j.RealtimeCurve()
	estimate := func(atSecs float64) (float64, bool) {
		if r.Estimator == nil {
			return 0, false
		}
		return r.Estimator.EstimateAt(j.Query().Name(), j.Class(), j.BatchRows(), rt, atSecs)
	}
	var rate float64
	e1, ok1 := estimate(t)
	e2, ok2 := estimate(t + horizon)
	if ok1 && ok2 {
		rate = (e2 - e1) / horizon
	} else if len(rt) >= 2 {
		p, q := rt[len(rt)-2], rt[len(rt)-1]
		if q.X > p.X {
			rate = (q.Y - p.Y) / (q.X - p.X)
		}
	}
	maxSpeed := aqp.Speedup(r.MaxThreadsPerJob)
	required := math.Inf(1)
	if rate > 1e-9 {
		required = (target - a0) / rate / remaining // speedup to attain in time per the fit
	}
	// Exhaustion bound: processing the whole remaining stream yields the
	// exact answer (accuracy 1 ≥ any threshold), and the remaining work
	// is known exactly from the job's own cost per row: t·(1−f)/f
	// single-thread seconds. Late-blooming (convex) progress curves are
	// underestimated by the linear fit, but never worse than this bound.
	if f := j.Query().DataProgress(); f > 0 && f < 1 {
		exhaust := j.NormProcessingSecs() * (1 - f) / f / remaining
		if exhaust < required {
			required = exhaust
		}
	}
	if required > maxSpeed {
		return hopeless(0.05)
	}
	// Within the feasible band, Algorithm 2 prioritizes the highest
	// estimated progress — the jobs closest to attaining, which free
	// their resources soonest. Lower required speedup ⇒ closer to done.
	return 2 - required/maxSpeed
}

// nextEpochSecsGuess projects the next epoch's processing time from the
// job's own history (or a nominal first-epoch guess).
func (j *AQPJob) nextEpochSecsGuess() float64 {
	if j.epochs > 0 {
		return j.processingSecs / float64(j.epochs)
	}
	return 60
}
