package core

import (
	"errors"
	"sort"

	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// This file implements §VI's "Unified Resource Arbitration Framework"
// discussion: "it is more interesting to have a unified resource
// arbitration system on a cluster to handle AQP and DLT jobs together.
// Such a system can serve more users and enormously improve resource
// utilization."
//
// The unified executor runs both prototype systems on ONE virtual clock,
// over one historical repository, under one global fairness threshold T:
// as long as any active job — AQP or DLT — is below T attainment
// progress, both sides arbitrate fairness-style (lowest progress first);
// once every job clears T (or is considered converged), both sides switch
// to their efficiency behaviour. This is Algorithm 3's threshold phase
// lifted from one workload type to the whole cluster.

// UnifiedExecConfig sizes the combined cluster.
type UnifiedExecConfig struct {
	AQP AQPExecConfig
	DLT DLTExecConfig
	// Threshold is the cluster-wide T of the lifted Algorithm 3.
	Threshold float64
}

// UnifiedExecutor arbitrates a mixed AQP + DLT workload.
type UnifiedExecutor struct {
	eng  *sim.Engine
	aqp  *AQPExecutor
	dlt  *DLTExecutor
	repo *estimate.Repository
	tee  *estimate.TEE

	state *unifiedState
}

// unifiedState is the shared global progress view both side-policies
// consult.
type unifiedState struct {
	threshold float64
	aqpJobs   []*AQPJob
	dltJobs   []*DLTJob
	tee       *estimate.TEE
}

// allMeetThreshold reports whether every active (arrived, non-terminal)
// job in the cluster has attainment progress ≥ T; converged jobs count as
// meeting it.
func (u *unifiedState) allMeetThreshold() bool {
	for _, j := range u.aqpJobs {
		if !j.arrived || j.Status().Terminal() {
			continue
		}
		if j.AttainmentProgress() < u.threshold {
			return false
		}
	}
	for _, j := range u.dltJobs {
		if !j.arrived || j.Status().Terminal() {
			continue
		}
		if j.ConvergedAtEpoch() > 0 {
			continue
		}
		if j.AttainmentProgress(u.tee) < u.threshold {
			return false
		}
	}
	return true
}

// minProgress reports the cluster-wide minimum attainment progress of the
// active jobs (1 when none are active) — the unified fairness metric.
func (u *unifiedState) minProgress() float64 {
	minP := 1.0
	seen := false
	for _, j := range u.aqpJobs {
		if !j.arrived || j.Status().Terminal() {
			continue
		}
		seen = true
		if p := j.AttainmentProgress(); p < minP {
			minP = p
		}
	}
	for _, j := range u.dltJobs {
		if !j.arrived || j.Status().Terminal() {
			continue
		}
		seen = true
		if p := j.AttainmentProgress(u.tee); p < minP {
			minP = p
		}
	}
	if !seen {
		return 1
	}
	return minP
}

// unifiedAQPSched wraps Algorithm 2 with the cluster-wide fairness phase:
// below the global threshold, pending jobs are served lowest-progress
// first with one thread each; above it, the inner Rotary-AQP policy runs
// unchanged.
type unifiedAQPSched struct {
	inner *RotaryAQP
	state *unifiedState
}

// Name implements AQPScheduler.
func (s *unifiedAQPSched) Name() string { return "rotary-unified-aqp" }

// Assign implements AQPScheduler.
func (s *unifiedAQPSched) Assign(ctx *AQPContext) []AQPGrant {
	if s.state.allMeetThreshold() {
		return s.inner.Assign(ctx)
	}
	// Fairness phase: lowest attainment progress first (trial jobs first
	// so the estimators get data), one thread each within memory.
	ranked := append([]*AQPJob(nil), ctx.Pending...)
	sort.SliceStable(ranked, func(a, b int) bool {
		ja, jb := ranked[a], ranked[b]
		ta, tb := ja.Epochs() == 0, jb.Epochs() == 0
		if ta != tb {
			return ta
		}
		return ja.AttainmentProgress() < jb.AttainmentProgress()
	})
	free := ctx.FreeThreads
	mem := ctx.FreeMemMB
	var grants []AQPGrant
	for _, j := range ranked {
		if free == 0 {
			break
		}
		r := j.EstMemMB()
		if r > mem {
			continue
		}
		grants = append(grants, AQPGrant{Job: j, Threads: 1, ReserveMemMB: r})
		free--
		mem -= r
	}
	// Remaining threads boost the laggards first, so the fairness phase
	// uses the whole pool.
	for i := range grants {
		for grants[i].Threads < s.inner.MaxThreadsPerJob && free > 0 {
			grants[i].Threads++
			free--
		}
	}
	return grants
}

// unifiedDLTSched wraps Algorithm 3, replacing its per-workload
// threshold check with the cluster-wide one.
type unifiedDLTSched struct {
	inner *RotaryDLT
	state *unifiedState
}

// Name implements DLTScheduler.
func (s *unifiedDLTSched) Name() string { return "rotary-unified-dlt" }

// Place implements DLTScheduler.
func (s *unifiedDLTSched) Place(ctx *DLTContext) []DLTPlacement {
	// Steer the inner policy's phase from the global view: threshold 0
	// forces the efficiency branch, threshold 1 the fairness branch.
	if s.state.allMeetThreshold() {
		s.inner.Threshold = 0
	} else {
		s.inner.Threshold = 1
	}
	return s.inner.Place(ctx)
}

// NewUnifiedExecutor builds the §VI unified system: one clock, one
// repository, one global threshold across both resource substrates.
func NewUnifiedExecutor(cfg UnifiedExecConfig, repo *estimate.Repository) *UnifiedExecutor {
	if repo == nil {
		repo = estimate.NewRepository()
	}
	eng := sim.New()
	tee := estimate.NewTEE(repo, 3)
	tme := estimate.NewTME(repo, 3)
	state := &unifiedState{threshold: cfg.Threshold, tee: tee}

	aqpSched := &unifiedAQPSched{
		inner: NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3)),
		state: state,
	}
	dltSched := &unifiedDLTSched{
		inner: NewRotaryDLT(cfg.Threshold, tee, tme),
		state: state,
	}

	u := &UnifiedExecutor{
		eng:   eng,
		aqp:   NewAQPExecutorOn(eng, cfg.AQP, aqpSched, repo),
		dlt:   NewDLTExecutorOn(eng, cfg.DLT, dltSched, repo),
		repo:  repo,
		tee:   tee,
		state: state,
	}
	done := func() {
		if u.aqp.terminalCount == len(u.aqp.jobs) && u.dlt.terminalCount == len(u.dlt.jobs) {
			eng.Stop()
		}
	}
	u.aqp.onDone = done
	u.dlt.onDone = done
	return u
}

// Engine exposes the shared virtual clock.
func (u *UnifiedExecutor) Engine() *sim.Engine { return u.eng }

// SubmitAQP schedules an AQP job's arrival.
func (u *UnifiedExecutor) SubmitAQP(j *AQPJob, at sim.Time) {
	u.state.aqpJobs = append(u.state.aqpJobs, j)
	u.aqp.Submit(j, at)
}

// SubmitDLT schedules a DLT job's arrival.
func (u *UnifiedExecutor) SubmitDLT(j *DLTJob, at sim.Time) {
	u.state.dltJobs = append(u.state.dltJobs, j)
	u.dlt.Submit(j, at)
}

// AQPJobs and DLTJobs return the submitted jobs.
func (u *UnifiedExecutor) AQPJobs() []*AQPJob { return u.aqp.Jobs() }

// DLTJobs returns the submitted DLT jobs.
func (u *UnifiedExecutor) DLTJobs() []*DLTJob { return u.dlt.Jobs() }

// MinProgress reports the cluster-wide minimum attainment progress.
func (u *UnifiedExecutor) MinProgress() float64 { return u.state.minProgress() }

// Recovery reports the cluster-wide fault-recovery counters (AQP + DLT).
func (u *UnifiedExecutor) Recovery() RecoveryStats {
	return u.aqp.Recovery().Add(u.dlt.Recovery())
}

// Run drives the mixed workload to completion.
func (u *UnifiedExecutor) Run() error {
	if err := errors.Join(u.aqp.Validate(), u.dlt.Validate()); err != nil {
		return err
	}
	u.eng.Run()
	return errors.Join(u.aqp.drainErr(), u.dlt.drainErr())
}
