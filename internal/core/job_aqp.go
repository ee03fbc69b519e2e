// Package core implements the Rotary resource-arbitration framework:
// the job and queue model of §III-D, the arbitration loop of Algorithm 1,
// the Rotary-AQP policy of Algorithm 2, the threshold-based Rotary-DLT
// policy of Algorithm 3 with the progress computation of Algorithm 4, and
// the event-driven executors that drive jobs, policies, and the resource
// substrates over virtual time.
package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"rotary/internal/aqp"
	"rotary/internal/criteria"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// AQPJob is one progressive query in the multi-tenant AQP system: the
// running online query plus its completion criterion, envelope state, and
// the bookkeeping the arbiter and the metrics need.
type AQPJob struct {
	jobCore
	query aqp.OnlineQuery
	class string

	// Memory facts: the CBO-style pre-run estimate and the row batch used
	// per processing step.
	estMemMB  float64
	batchRows int

	// epochBatches is the running-epoch length in batches; Rotary sets it
	// adaptively (∝ estimated memory), baselines leave the default.
	epochBatches int

	envelope *envelopeState

	// normSecs is cumulative processing work in single-thread-equivalent
	// seconds, the unit the progress-runtime curves are fitted in (the
	// historical curves are recorded single-threaded, so real-time points
	// must normalize out the varying thread grants).
	normSecs float64
	stopAcc  float64 // true accuracy at stop (metrics only)

	// detached marks a job removed from its executor by Detach for
	// checkpoint-carried migration to another arbiter shard: events already
	// scheduled against it (its deadline watchdog) must become no-ops — the
	// receiving shard owns the rest of its lifecycle.
	detached bool

	// realtimeCurve is the recorded (processing-seconds, estimated
	// accuracy) series fed to the progress estimator.
	realtimeCurve []estimate.Point
}

// envelopeState bundles the per-cell envelopes with the spec metadata
// needed to compose the system-side accuracy estimate.
type envelopeState struct {
	perCol map[int]*colEnvelope
	window int
}

// convergeThreshold is the §IV-A envelope's stop threshold: a cell has
// converged once its window's estimates agree to this ratio.
const convergeThreshold = 0.999

// defaultEpochBatches is a job's running-epoch length in batches until a
// policy adapts it (SetEpochBatches).
const defaultEpochBatches = 4

type colEnvelope struct {
	cells  map[string]*cellTrack
	byName []*cellTrack // cells in group-name order; see inOrder
}

// inOrder returns the column's cells in group-name order, so that sums
// over them are one bit pattern however the map iterates. Cells are only
// ever added, so the order is rebuilt only after observeEpoch adds a
// group, not on every estimate the arbiter asks for.
func (c *colEnvelope) inOrder() []*cellTrack {
	if len(c.byName) != len(c.cells) {
		c.byName = c.byName[:0]
		for _, g := range slices.Sorted(maps.Keys(c.cells)) {
			c.byName = append(c.byName, c.cells[g])
		}
	}
	return c.byName
}

// cellTrack couples a cell's envelope with its growth history. For SUM
// and COUNT aggregates the final-ratio estimate is f^k, where f is the
// processed data fraction and k is the growth exponent fitted on the
// cell's recent log-log (fraction, value) trajectory: uniformly accruing
// aggregates have k ≈ 1 (the classic online-aggregation scaling), while
// aggregates whose qualifying events need many co-located rows (Q18's
// per-order quantity crossings, Q21's completed orders) grow
// superlinearly, and the plain data fraction would overestimate badly.
type cellTrack struct {
	env *estimate.Envelope
	pts []estimate.Point // (ln f, ln |v|), last growthWindow points
}

const growthWindow = 8

func (c *cellTrack) observe(frac, v float64) {
	c.env.Observe(v)
	if frac <= 0 || v == 0 {
		return
	}
	if v < 0 {
		v = -v
	}
	c.pts = append(c.pts, estimate.Point{X: math.Log(frac), Y: math.Log(v)})
	if len(c.pts) > growthWindow {
		c.pts = c.pts[len(c.pts)-growthWindow:]
	}
}

// growthExponent fits k on the recent trajectory, clamped to [0.5, 6].
// With too little signal it reports the uniform-accrual default 1.
func (c *cellTrack) growthExponent() float64 {
	if len(c.pts) < 3 {
		return 1
	}
	w := make([]float64, len(c.pts))
	for i := range w {
		w[i] = 1
	}
	k := estimate.FitWLS(c.pts, w).Slope
	if k < 0.5 {
		k = 0.5
	}
	if k > 6 {
		k = 6
	}
	return k
}

// JobStatus is a job's terminal (or live) state.
type JobStatus int

// Job statuses. A job stops as AttainedStop when the system believes its
// criterion is met, ConvergedStop when the envelope (AQP) or delta check
// (DLT) declares convergence, Expired when its deadline passes first.
// Under admission control a job may instead terminate Rejected (refused
// at the gate — deadline infeasible or queue full) or Shed (admitted but
// later evicted from the queue for a higher-value arrival); both are
// terminal and must stay ≥ StatusAttainedStop so Terminal() holds.
const (
	StatusPending JobStatus = iota
	StatusRunning
	StatusAttainedStop
	StatusConvergedStop
	StatusExpired
	StatusRejected
	StatusShed
)

// String names the status.
func (s JobStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusAttainedStop:
		return "attained"
	case StatusConvergedStop:
		return "converged"
	case StatusExpired:
		return "expired"
	case StatusRejected:
		return "rejected"
	case StatusShed:
		return "shed"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool { return s >= StatusAttainedStop }

// EpochObs is one per-epoch observation in a job's log.
type EpochObs struct {
	At       sim.Time
	Epoch    int
	EstAcc   float64
	TrueAcc  float64
	Progress float64
}

// AQPJobConfig assembles an AQPJob.
type AQPJobConfig struct {
	ID    string
	Query aqp.OnlineQuery
	// Criteria must be accuracy-oriented with a wall-time deadline for the
	// Table I workloads; the framework accepts any kind.
	Criteria criteria.Criteria
	Class    string
	// Tenant attributes the job for quotas and fair-share arbitration;
	// empty means the default tenant.
	Tenant   string
	EstMemMB float64
	// BatchRows is the per-step row batch (Table I's batch size feature).
	BatchRows int
	// EnvelopeWindow is the §IV-A envelope's window in epochs.
	EnvelopeWindow int
}

// NewAQPJob wraps a running online query as an arbitrated job.
func NewAQPJob(cfg AQPJobConfig) (*AQPJob, error) {
	if cfg.Query == nil {
		return nil, fmt.Errorf("core: job %s has no query", cfg.ID)
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 2000
	}
	if cfg.EnvelopeWindow <= 0 {
		cfg.EnvelopeWindow = 4
	}
	return &AQPJob{
		jobCore:      jobCore{id: cfg.ID, crit: cfg.Criteria, tenant: cfg.Tenant},
		query:        cfg.Query,
		class:        cfg.Class,
		estMemMB:     cfg.EstMemMB,
		batchRows:    cfg.BatchRows,
		epochBatches: defaultEpochBatches,
		envelope:     &envelopeState{window: cfg.EnvelopeWindow},
	}, nil
}

// RejectErr returns the typed admission refusal cause for a
// StatusRejected job (nil otherwise). Match with errors.Is against the
// admission package's sentinel errors.
func (j *AQPJob) RejectErr() error { return j.rejectErr }

// RetryAfterSecs returns the quota layer's retry hint for a refused
// job; 0 when the refusal was not time-based.
func (j *AQPJob) RetryAfterSecs() float64 { return j.retryAfterSecs }

// Class returns the Table I class label ("light", "medium", "heavy").
func (j *AQPJob) Class() string { return j.class }

// Query exposes the underlying online query.
func (j *AQPJob) Query() aqp.OnlineQuery { return j.query }

// EstMemMB returns the CBO-style pre-run memory estimate.
func (j *AQPJob) EstMemMB() float64 { return j.estMemMB }

// BatchRows returns the per-step row batch size.
func (j *AQPJob) BatchRows() int { return j.batchRows }

// EpochBatches returns the current running-epoch length in batches.
func (j *AQPJob) EpochBatches() int { return j.epochBatches }

// SetEpochBatches overrides the running-epoch length (Rotary's adaptive
// running epochs; Algorithm 2's "Assign running epoch e_j for job j").
func (j *AQPJob) SetEpochBatches(n int) {
	if n < 1 {
		n = 1
	}
	j.epochBatches = n
}

// NormProcessingSecs reports cumulative work in single-thread-equivalent
// seconds — the x-axis of the progress-runtime curves.
func (j *AQPJob) NormProcessingSecs() float64 { return j.normSecs }

// LastRunAt reports when the job last finished a running epoch (its
// arrival time if it never ran) — the aging input for deferred-job
// reconsideration.
func (j *AQPJob) LastRunAt() sim.Time {
	if j.everRan {
		return j.lastRelease
	}
	return j.arrival
}

// RealtimeCurve returns the recorded (processing seconds, estimated
// accuracy) points — the real-time input to the §IV-A joint fit.
func (j *AQPJob) RealtimeCurve() []estimate.Point {
	out := make([]estimate.Point, len(j.realtimeCurve))
	copy(out, j.realtimeCurve)
	return out
}

// StopAccuracy reports the ground-truth accuracy at the job's stop time
// (metrics only; the system never reads it while arbitrating).
func (j *AQPJob) StopAccuracy() float64 { return j.stopAcc }

// EstimatedAccuracy is the system-side accuracy estimate that does not
// require the final answer: SUM and COUNT columns use the growth-
// exponent scaling f^k (online-aggregation scaling corrected for
// non-uniform event accrual), while AVG, MIN, and MAX columns use the
// envelope's p/q stability ratio from §IV-A.
func (j *AQPJob) EstimatedAccuracy() float64 {
	specs := j.query.Snapshot().Specs
	if len(specs) == 0 {
		return 0
	}
	frac := j.query.DataProgress()
	var sum float64
	for i, spec := range specs {
		switch spec.Kind {
		case aqp.Sum, aqp.Count:
			sum += j.envelope.colScaled(i, frac)
		default:
			sum += j.envelope.colRatio(i)
		}
	}
	return sum / float64(len(specs))
}

// colRatio averages the envelope ratios over the cells of column i.
func (e *envelopeState) colRatio(i int) float64 {
	if e.perCol == nil {
		return 0
	}
	col, ok := e.perCol[i]
	if !ok || len(col.cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range col.inOrder() {
		sum += c.env.Ratio()
	}
	return sum / float64(len(col.cells))
}

// colScaled averages the growth-scaled final-ratio estimates f^k over the
// cells of column i.
func (e *envelopeState) colScaled(i int, frac float64) float64 {
	if e.perCol == nil || frac <= 0 {
		return 0
	}
	col, ok := e.perCol[i]
	if !ok || len(col.cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range col.inOrder() {
		sum += math.Pow(frac, c.growthExponent())
	}
	return sum / float64(len(col.cells))
}

// observeEpoch feeds the latest snapshot into the envelopes and growth
// trackers and appends the real-time point.
func (j *AQPJob) observeEpoch(now sim.Time) {
	snap := j.query.Snapshot()
	frac := j.query.DataProgress()
	if j.envelope.perCol == nil {
		j.envelope.perCol = make(map[int]*colEnvelope)
	}
	for g, vals := range snap.Groups {
		for i, v := range vals {
			col, ok := j.envelope.perCol[i]
			if !ok {
				col = &colEnvelope{cells: make(map[string]*cellTrack)}
				j.envelope.perCol[i] = col
			}
			c, ok := col.cells[g]
			if !ok {
				c = &cellTrack{env: estimate.NewEnvelope(j.envelope.window)}
				col.cells[g] = c
			}
			c.observe(frac, v)
		}
	}
	est := j.EstimatedAccuracy()
	j.realtimeCurve = append(j.realtimeCurve, estimate.Point{X: j.normSecs, Y: est})
	j.epochLog = append(j.epochLog, EpochObs{
		At:       now,
		Epoch:    j.epochs,
		EstAcc:   est,
		TrueAcc:  j.query.Accuracy(),
		Progress: j.AttainmentProgress(),
	})
}

// envelopeConverged reports whether every tracked cell's envelope has
// filled its window and stabilized — the §IV-A stop signal.
func (j *AQPJob) envelopeConverged() bool {
	if j.envelope.perCol == nil || len(j.envelope.perCol) == 0 {
		return false
	}
	for _, col := range j.envelope.perCol {
		for _, c := range col.cells {
			if !c.env.Converged(convergeThreshold) {
				return false
			}
		}
	}
	return true
}

// AttainmentProgress is the job's progress φ toward its completion
// criterion, in [0, 1]: estimated accuracy relative to the accuracy
// threshold for accuracy-oriented criteria, elapsed fraction for
// runtime-oriented ones.
func (j *AQPJob) AttainmentProgress() float64 {
	switch j.crit.Kind {
	case criteria.Accuracy, criteria.Convergence:
		if j.crit.Threshold <= 0 {
			return 0
		}
		p := j.EstimatedAccuracy() / j.crit.Threshold
		if p > 1 {
			p = 1
		}
		return p
	case criteria.Runtime:
		if secs, ok := j.crit.Deadline.DeadlineSeconds(); ok && secs > 0 {
			p := j.processingSecs / secs
			if p > 1 {
				p = 1
			}
			return p
		}
		return 0
	default:
		return 0
	}
}

// DeadlineSecs returns the wall-time deadline in seconds (∞-like large
// value for epoch deadlines, which the AQP workloads do not use).
func (j *AQPJob) DeadlineSecs() float64 {
	if secs, ok := j.crit.Deadline.DeadlineSeconds(); ok {
		return secs
	}
	return 1e18
}
