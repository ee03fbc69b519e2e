package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rotary/internal/aqp"
	"rotary/internal/cluster"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// AQPExecConfig sizes the multi-tenant AQP system. The paper's testbed
// exposes 20 physical cores and 192 GB to Spark.
type AQPExecConfig struct {
	Threads int
	MemMB   float64
	// CheckpointSecsPerMB is the disk checkpoint+restore cost per MB of
	// job state; deferring a job to disk and resuming it later pays
	// 2 × (CheckpointBaseSecs + state·CheckpointSecsPerMB).
	CheckpointSecsPerMB float64
	// CheckpointBaseSecs is the fixed checkpoint/restore latency.
	CheckpointBaseSecs float64
	ExecConfig
}

// DefaultAQPExecConfig mirrors the paper's 20-thread server, scaled to a
// memory budget appropriate for the chosen dataset scale factor.
func DefaultAQPExecConfig(memMB float64) AQPExecConfig {
	return AQPExecConfig{
		Threads:             20,
		MemMB:               memMB,
		CheckpointSecsPerMB: 0.02,
		CheckpointBaseSecs:  1.0,
		ExecConfig:          ExecConfig{RecordHistory: true},
	}
}

// AQPExecutor drives a workload of AQP jobs through a scheduling policy
// over virtual time: Algorithm 1's loop realized as a discrete-event
// program. The shared lifecycle (execCore) admits, queues, and stops jobs
// per the multi-tenant system rules; this side owns the thread/memory
// pool, applies grants, charges epoch costs (including checkpoint
// overheads and memory-oversubscription pressure), observes per-epoch
// state, and decides the stop (estimated attainment, envelope
// convergence, deadline expiry, data exhaustion).
type AQPExecutor struct {
	execCore[*AQPJob]
	pool  *cluster.CPUPool
	sched AQPScheduler
	// cfg supplies the model's own knobs; the shared ones are read through
	// execCore.lc, whose Tracer carries the process default.
	cfg AQPExecConfig

	runningEstMem float64
	// arbCtx is arbitration scratch (see execCore.arbPend).
	arbCtx AQPContext
}

// NewAQPExecutor builds an executor over a fresh engine and pool.
func NewAQPExecutor(cfg AQPExecConfig, sched AQPScheduler, repo *estimate.Repository) *AQPExecutor {
	e := NewAQPExecutorOn(sim.New(), cfg, sched, repo)
	e.ownsEngine = true
	return e
}

// NewAQPExecutorOn builds an executor over an existing engine, so that
// multiple executors (the unified AQP+DLT system of §VI) share one
// virtual clock.
func NewAQPExecutorOn(eng *sim.Engine, cfg AQPExecConfig, sched AQPScheduler, repo *estimate.Repository) *AQPExecutor {
	if cfg.Threads <= 0 {
		cfg.Threads = 20
	}
	if cfg.MemMB <= 0 {
		cfg.MemMB = 8192
	}
	e := &AQPExecutor{
		pool:  cluster.NewCPUPool(cfg.Threads, cfg.MemMB),
		sched: sched,
		cfg:   cfg,
	}
	e.execCore = newExecCore[*AQPJob](e, eng, repo, "aqp", cfg.Threads, cfg.ExecConfig)
	if cfg.AgingRounds > 0 {
		g := NewStarvationGuardAQP(sched, cfg.AgingRounds)
		e.sched, e.aging = g, &g.agingLedger
	}
	return e
}

// Store exposes the configured checkpoint store (nil when there is none);
// the serving mode flushes it at each journal step.
func (e *AQPExecutor) Store() *CheckpointStore { return e.lc.Store }

// Submit schedules a job's arrival at the given virtual time.
func (e *AQPExecutor) Submit(j *AQPJob, at sim.Time) {
	e.register(j, at, false)
}

// Recover re-registers a journal-recovered job at the given virtual time:
// the job passed admission in a previous daemon incarnation, so it
// bypasses the gate and rejoins the wait queue directly. Its first grant
// replays the latest durable checkpoint; if none survived the restart it
// falls back to the pristine scratch restart with the usual RecoveryStats
// accounting. bestEffort restores a Degrade admission verdict journaled
// before the crash.
func (e *AQPExecutor) Recover(j *AQPJob, at sim.Time, bestEffort bool) {
	j.bestEffort = bestEffort
	e.register(j, at, true)
}

// Detach removes a queued pending job from the executor for
// checkpoint-carried migration to another arbiter shard. Only a job
// resident in the wait queue can detach: a running job must first finish
// (or be preempted out of) its in-flight epoch, and a job in limbo
// (waiting out a crash or watchdog penalty) is mid-transition — both
// report ErrNotDetachable so the caller can drain and retry. The detached
// job's already-scheduled deadline watchdog becomes a no-op; the receiving
// shard rebuilds the job from its journaled statement and reattaches it to
// its durable checkpoint, so the detached object itself is never reused.
func (e *AQPExecutor) Detach(id string) error {
	var j *AQPJob
	idx := -1
	for i, cand := range e.jobs {
		if cand.ID() == id {
			j, idx = cand, i
			break
		}
	}
	if j == nil {
		return fmt.Errorf("core: detach %s: %w", id, ErrUnknownJob)
	}
	if j.status.Terminal() {
		return fmt.Errorf("core: detach %s: job already terminal (%s)", id, j.status)
	}
	queued := false
	for _, p := range e.pending {
		if p == j {
			queued = true
			break
		}
	}
	if !queued {
		return fmt.Errorf("core: detach %s: %w (status %s)", id, ErrNotDetachable, j.status)
	}
	e.removePending(j)
	e.jobs = append(e.jobs[:idx], e.jobs[idx+1:]...)
	j.detached = true
	// The durable checkpoint is deliberately left in the store: the
	// migration path exports it AFTER detaching (the detach is what
	// guarantees no further epoch can overwrite it mid-copy). The orphaned
	// source copy is cleared by the caller once the handoff commits, or by
	// the retain-aware startup sweep after the journal marks the job
	// migrated.
	// The job's tenant slot moves with it: the receiving shard adopts it
	// on Recover, so the source releases it here.
	if e.lc.Admission != nil {
		e.lc.Admission.JobDone(j.tenant)
	}
	e.note(j, TraceEvent{Kind: TraceDetach}, 0)
	return nil
}

// Typed detach errors: the serving layer maps these onto retriable vs
// permanent protocol replies.
var (
	// ErrUnknownJob reports that the executor has no job with the id.
	ErrUnknownJob = errors.New("core: unknown job")
	// ErrNotDetachable reports a job that exists but is not queue-resident
	// (running or in limbo); draining its in-flight epoch and retrying will
	// usually succeed.
	ErrNotDetachable = errors.New("core: job not detachable")
)

// arrived arms the deadline watchdog: a job still waiting in the queue
// when its deadline passes is terminated right there, not at some later
// epoch boundary.
func (e *AQPExecutor) arrived(j *AQPJob) {
	e.eng.Schedule(j.DeadlineSecs(), func() {
		if j.status == StatusPending && !j.detached {
			e.removePending(j)
			e.finishJob(j, StatusExpired)
			e.scheduleArbitrate()
		}
	})
}

// lessValuable orders jobs by shedding preference: best-effort first,
// then lower attainment progress (less sunk work toward completion), then
// later absolute deadline (less urgent), then larger ID.
func (j *AQPJob) lessValuable(b *AQPJob) bool {
	if j.bestEffort != b.bestEffort {
		return j.bestEffort
	}
	pa, pb := j.AttainmentProgress(), b.AttainmentProgress()
	if pa != pb {
		return pa < pb
	}
	da := j.arrival.Seconds() + j.DeadlineSecs()
	db := b.arrival.Seconds() + b.DeadlineSecs()
	if da != db {
		return da > db
	}
	return j.id > b.id
}

// arbitrate invokes the policy over the current queue state and applies
// its grants. The context and its slices are scratch reused across
// rounds; policies must not retain them past Assign (every in-repo
// policy copies before sorting).
func (e *AQPExecutor) arbitrate() {
	if len(e.pending) == 0 || e.pool.FreeThreads() == 0 {
		return
	}
	e.arbPend = append(e.arbPend[:0], e.pending...)
	e.arbCtx = AQPContext{
		Now:          e.eng.Now(),
		Pending:      e.arbPend,
		Running:      e.runningJobs(),
		FreeThreads:  e.pool.FreeThreads(),
		TotalThreads: e.pool.TotalThreads(),
		FreeMemMB:    e.pool.FreeMemMB(),
		TotalMemMB:   e.pool.TotalMemMB(),
	}
	for _, g := range e.sched.Assign(&e.arbCtx) {
		e.startEpoch(g)
	}
}

// startEpoch applies one grant: books resources, charges resume overhead
// if the job was checkpointed, prices the running epoch's batches, and
// schedules the event that ends the epoch. The batches run when the epoch
// completes — an epoch cut short runs none — so between events every job's
// query state is the state of its last completed epoch.
func (e *AQPExecutor) startEpoch(g AQPGrant) {
	j := g.Job
	if !e.startable(j) {
		return
	}
	if err := e.pool.Allocate(j.ID(), g.Threads, g.ReserveMemMB); err != nil {
		return // raced against another grant this round; stay pending
	}
	e.start(j, TraceEvent{Kind: TraceGrant, Threads: g.Threads})
	e.runningEstMem += j.EstMemMB()

	// Memory-oversubscription pressure: if the running jobs' true
	// footprints exceed the pool, everything pays a thrashing factor.
	// Memory-aware policies reserve estimates and so self-limit to ≤ 1.
	// The factor is superlinear (paging thrash does not conserve
	// throughput), so oversubscribing is strictly worse than serializing.
	pressure := e.runningEstMem / e.pool.TotalMemMB()
	if pressure < 1 {
		pressure = 1
	} else {
		pressure = math.Pow(pressure, 1.5)
	}

	var epochSecs float64
	// Checkpoint-I/O backoff accrued when this job's state was last saved
	// is charged to its next epoch.
	epochSecs += j.deferredPenaltySecs
	j.deferredPenaltySecs = 0
	// Resuming a job deferred at an earlier instant replays its disk
	// checkpoint; a job re-granted at the very moment it released keeps
	// its state hot (§III-C's third advantage) — unless a crash left the
	// in-memory state dirty (needsRestore), which forces the replay. With
	// a CheckpointStore configured the replay is real: the in-memory state
	// is discarded and reconstructed from the persisted bytes, and resumes
	// served from the store's memory tier skip the disk-replay cost.
	if j.needsRestore || (j.everRan && j.lastRelease != e.eng.Now()) {
		epochSecs += e.resumeJob(j)
	}
	batches := j.epochBatches
	workSecs := j.query.EpochCost(j.batchRows, batches, g.Threads)
	epochSecs = (epochSecs + workSecs) * pressure
	if epochSecs <= 0 {
		epochSecs = 0.001
	}
	// Normalized work: the batch costs re-expressed at one thread, so the
	// job's progress-runtime curve shares units with the single-threaded
	// historical curves.
	normWork := workSecs * aqp.Speedup(g.Threads)
	e.runEpoch(j, 0, epochSecs, func() {
		// The grant's thread count is real in the data path: stateless
		// queries fan the batches out across that many goroutines, merged
		// deterministically, so results are bit-identical at every width.
		for b := 0; b < batches; b++ {
			if rows, _ := j.query.ProcessBatch(j.batchRows, g.Threads); rows == 0 {
				break
			}
		}
		e.finishEpoch(j, epochSecs, normWork)
	})
}

// release returns the job's threads and memory reservation to the pool.
func (e *AQPExecutor) release(j *AQPJob) {
	e.pool.Release(j.ID())
	e.runningEstMem -= j.EstMemMB()
}

// crashed does nothing: the worker pool itself stays healthy.
func (e *AQPExecutor) crashed(*AQPJob, int) {}

// detail formats the AQP side's trace details: an epoch's estimated
// accuracy, a crash's wasted seconds, and whether a resume from the store
// was served by its memory tier.
func (e *AQPExecutor) detail(j *AQPJob, kind TraceKind, x float64) string {
	switch {
	case kind == TraceEpochDone:
		return fmt.Sprintf("epoch=%d est-acc=%.3f", j.epochs, j.EstimatedAccuracy())
	case kind == TraceCrash:
		return fmt.Sprintf("wasted=%.1fs", x)
	case kind == TraceResume && e.lc.Store != nil:
		return fmt.Sprintf("fromMemory=%v", x == 1)
	}
	return ""
}

// encode serializes the job's state, timing the encode apart from the
// store's disk write.
func (e *AQPExecutor) encode(j *AQPJob) ([]byte, error) {
	start := time.Now()
	data, err := j.query.Checkpoint()
	e.met.ckptEncode.Observe(time.Since(start).Seconds())
	return data, err
}

// persist saves the deferred job's state lazily: if a later save
// overtakes it on a write-behind store, it is never even encoded.
func (e *AQPExecutor) persist(j *AQPJob) error {
	return e.lc.Store.SaveLazy(j.ID(), func() ([]byte, error) { return e.encode(j) })
}

// resumeJob replays the job's persisted state and returns the virtual
// resume cost; resumes served from the store's memory tier skip the disk
// replay.
func (e *AQPExecutor) resumeJob(j *AQPJob) float64 {
	state := j.query.StateMemMB()
	cost := 2 * (e.cfg.CheckpointBaseSecs + state*e.cfg.CheckpointSecsPerMB)
	if e.lc.Store == nil {
		e.note(j, TraceEvent{Kind: TraceResume}, 0)
		return cost
	}
	penalty, fromMemory, ok := e.restore(j, j.query.Restore)
	if !ok {
		return cost + penalty
	}
	if fromMemory {
		return 0.1 * e.cfg.CheckpointBaseSecs
	}
	return cost + penalty
}

// rewind restores the pristine query state and clears every observation
// the job accumulated — fresh envelope and growth trackers, empty
// real-time curve, zeroed work — so the replay reproduces the fault-free
// observation sequence bit-for-bit.
func (e *AQPExecutor) rewind(j *AQPJob) error {
	if err := j.query.Restore(j.pristine); err != nil {
		return err
	}
	j.envelope = &envelopeState{window: j.envelope.window}
	j.realtimeCurve = nil
	j.normSecs = 0
	return nil
}

// finishEpoch observes the completed epoch and applies the shared stop
// rules.
func (e *AQPExecutor) finishEpoch(j *AQPJob, epochSecs, normWork float64) {
	e.epochDone(j, epochSecs)
	j.normSecs += normWork
	now := e.eng.Now()
	j.observeEpoch(now)
	e.note(j, TraceEvent{Kind: TraceEpochDone}, epochSecs)

	elapsed := (now - j.arrival).Seconds()
	// Stop margin: the estimate is noisy around the threshold, so the
	// system demands a small cushion before declaring attainment —
	// otherwise roughly half the stops would land just below the true
	// threshold and count as false attainment.
	stopAt := j.crit.Threshold * 1.05
	if ceil := j.crit.Threshold + 0.03; stopAt > ceil {
		stopAt = ceil
	}
	switch {
	case j.query.Exhausted():
		// Processed everything: the answer is exact.
		e.finishJob(j, StatusAttainedStop)
	case j.crit.Threshold > 0 && j.EstimatedAccuracy() >= stopAt:
		e.finishJob(j, StatusAttainedStop)
	case j.envelopeConverged() && j.query.DataProgress() >= 0.3:
		// The envelope declares convergence only once a meaningful share
		// of the stream has passed; early stalls on selective queries are
		// lulls, not convergence.
		e.finishJob(j, StatusConvergedStop)
	case elapsed >= j.DeadlineSecs():
		e.finishJob(j, StatusExpired)
	default:
		e.deferJob(j)
	}
	e.scheduleArbitrate()
}

// retire records the stop accuracy and the job's curve in the history.
func (e *AQPExecutor) retire(j *AQPJob) {
	j.stopAcc = j.query.Accuracy()
	if e.lc.RecordHistory {
		e.repo.AddAQP(estimate.AQPRecord{
			ID:        j.ID(),
			Query:     j.query.Name(),
			Class:     j.class,
			BatchRows: j.batchRows,
			Curve:     j.RealtimeCurve(),
		})
	}
}
