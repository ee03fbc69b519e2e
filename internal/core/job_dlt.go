package core

import (
	"fmt"

	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// DLTJob is one deep learning training job under arbitration: the
// simulated trainer plus its completion criterion and bookkeeping.
type DLTJob struct {
	jobCore
	job   *dlt.Job
	query estimate.DLTQuery // similarity-search identity

	lastDevice int

	// convergedAtEpoch records the first epoch at which the delta check
	// fired (0 = never) — the metrics' convergence-line.
	convergedAtEpoch int

	placements []Placement
}

// Placement is one contiguous stretch of a job on a device (the Fig. 11
// Gantt rectangles).
type Placement struct {
	Device int
	Start  sim.Time
	End    sim.Time
}

// NewDLTJob wraps a trainer with a completion criterion.
func NewDLTJob(id string, job *dlt.Job, crit criteria.Criteria) (*DLTJob, error) {
	if job == nil {
		return nil, fmt.Errorf("core: DLT job %s has no trainer", id)
	}
	cfg := job.Config()
	spec := job.Spec()
	return &DLTJob{
		jobCore: jobCore{id: id, crit: crit},
		job:     job,
		query: estimate.DLTQuery{
			Model:     cfg.Model,
			Family:    spec.Family,
			Dataset:   cfg.Dataset,
			ParamsM:   spec.ParamsM,
			BatchSize: cfg.BatchSize,
			Optimizer: cfg.Optimizer,
			LR:        cfg.LR,
		},
		lastDevice: -1,
	}, nil
}

// SetTenant attributes the job to a tenant. Call before submission —
// the attribution is folded into admission and fair-share state at
// registration.
func (j *DLTJob) SetTenant(t string) { j.tenant = t }

// Trainer exposes the underlying simulated training job.
func (j *DLTJob) Trainer() *dlt.Job { return j.job }

// SimilarityQuery returns the job identity used by TEE/TME retrieval.
func (j *DLTJob) SimilarityQuery() estimate.DLTQuery { return j.query }

// nextEpochSecsGuess projects the next epoch's training time from the
// job's own history, falling back to the trainer's nominal per-epoch cost
// — the watchdog's budget input.
func (j *DLTJob) nextEpochSecsGuess() float64 {
	if j.epochs > 0 {
		return j.processingSecs / float64(j.epochs)
	}
	per := float64(j.job.StepsPerEpoch()) * j.job.StepSeconds()
	if per <= 0 {
		per = 60
	}
	return per
}

// Accuracy reports the latest evaluation accuracy.
func (j *DLTJob) Accuracy() float64 { return j.job.Accuracy() }

// Placements returns the device-placement history.
func (j *DLTJob) Placements() []Placement { return j.placements }

// ConvergedAtEpoch reports the first epoch at which the convergence delta
// fired, or 0 if it never did — the §V-B convergence-line.
func (j *DLTJob) ConvergedAtEpoch() int { return j.convergedAtEpoch }

// MaxEpochs returns the criterion's epoch bound: the runtime target for
// runtime-oriented jobs, the WITHIN bound for the others. Wall-time
// deadlines convert using the job's steady-state epoch time.
func (j *DLTJob) MaxEpochs() int {
	if e, ok := j.crit.Deadline.DeadlineEpochs(); ok {
		return e
	}
	if secs, ok := j.crit.Deadline.DeadlineSeconds(); ok {
		per := float64(j.job.StepsPerEpoch()) * j.job.StepSeconds()
		if per <= 0 {
			return 1
		}
		e := int(secs / per)
		if e < 1 {
			e = 1
		}
		return e
	}
	return 1
}

// CriteriaMet reports whether the job's completion criterion is satisfied
// by its observed state (Algorithm 3's completion check).
func (j *DLTJob) CriteriaMet() bool {
	switch j.crit.Kind {
	case criteria.Accuracy:
		return j.job.Accuracy() >= j.crit.Threshold
	case criteria.Convergence:
		return j.convergedAtEpoch > 0
	case criteria.Runtime:
		return j.epochs >= j.MaxEpochs()
	default:
		return false
	}
}

// DeadlineExpired reports whether the criterion's bound has passed
// without attainment.
func (j *DLTJob) DeadlineExpired() bool {
	if j.crit.Kind == criteria.Runtime {
		return false // expiry is completion
	}
	return j.epochs >= j.MaxEpochs()
}

// AttainmentProgress implements Algorithm 4's progress computation φ,
// using tee to estimate ê (the number of epochs needed) for accuracy- and
// convergence-oriented criteria. A nil tee or a failed estimate yields
// the conservative e*/e_max fallback.
func (j *DLTJob) AttainmentProgress(tee *estimate.TEE) float64 {
	eStar := float64(j.epochs)
	eMax := float64(j.MaxEpochs())
	if eMax <= 0 {
		eMax = 1
	}
	clamp := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		if p < 0 {
			return 0
		}
		return p
	}
	switch j.crit.Kind {
	case criteria.Runtime:
		return clamp(eStar / eMax)
	case criteria.Accuracy:
		if tee == nil {
			return clamp(eStar / eMax)
		}
		// Algorithm 4's printed branches would only consult ê once the job
		// is overdue; the paper's own Fig. 11 discussion ("the inaccurate
		// estimate is 125, so its progress φ is much lower than others")
		// requires φ = e*/ê while more epochs are still needed, so we
		// follow that reading. An unavailable estimate falls back to the
		// conservative e*/e_max.
		eHat, ok := tee.EstimateEpochs(j.query, j.job.AccuracyHistory(), j.crit.Threshold)
		if !ok {
			return clamp(eStar / eMax)
		}
		if eHat < 1 {
			eHat = 1
		}
		return clamp(eStar / float64(eHat))
	case criteria.Convergence:
		if j.convergedAtEpoch > 0 {
			return 1
		}
		if tee == nil {
			return clamp(eStar / eMax)
		}
		// Expected accuracy at convergence: the plateau the similar
		// historical jobs reached, minus the delta margin.
		target, ok := j.expectedConvergedAccuracy(tee)
		if !ok {
			return clamp(eStar / eMax)
		}
		eHat, ok := tee.EstimateEpochs(j.query, j.job.AccuracyHistory(), target)
		if !ok {
			return clamp(eStar / eMax)
		}
		if eHat < 1 {
			eHat = 1
		}
		return clamp(eStar / float64(eHat))
	default:
		return 0
	}
}

// expectedConvergedAccuracy derives the plateau accuracy from the job's
// own history when long enough, else it signals the caller to fall back.
func (j *DLTJob) expectedConvergedAccuracy(tee *estimate.TEE) (float64, bool) {
	hist := j.job.AccuracyHistory()
	if len(hist) >= 2 {
		// Extrapolate the current trajectory: the curve flattens when the
		// per-epoch gain falls below the delta; treat the latest accuracy
		// plus a few remaining gains as the plateau.
		last := hist[len(hist)-1]
		gain := last - hist[len(hist)-2]
		if gain < 0 {
			gain = 0
		}
		return last + 3*gain, true
	}
	// No real-time data yet: ask TEE's repository via a high target; the
	// joint fit then relies purely on similar historical jobs.
	if tee == nil {
		return 0, false
	}
	return 0.9, true
}
