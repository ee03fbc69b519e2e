package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rotary/internal/admission"
	"rotary/internal/aqp"
	"rotary/internal/cluster"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/obs"
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
	// RecordHistory appends completed jobs to the repository so later
	// workloads estimate from them.
	RecordHistory bool
	// Store, when set, actually persists deferred jobs' state (stream
	// offsets + aggregate tables) and restores it on resume — §VI's disk
	// checkpointing with an optional memory materialization tier. Resumes
	// served from the memory tier skip the virtual disk-replay cost.
	Store *CheckpointStore
	// Tracer, when set, records the arbitration timeline. Nil adopts the
	// process default tracer if one was installed (SetDefaultTracer).
	Tracer *Tracer
	// Obs selects the metrics registry the executor's counters live in.
	// Nil uses the process-wide obs.Default() — instrumentation is always
	// on; a private registry isolates a run (replay tests do this).
	Obs *obs.Registry
	// Faults, when set, deals deterministic worker crashes into running
	// epochs (checkpoint I/O faults are dealt by arming the Store with the
	// same injector). Fault injection requires a Store: recovery replays
	// persisted state.
	Faults *faults.Injector
	// CrashRecoverySecs is the virtual time between a worker crash and the
	// job rejoining the pending queue (failure detection + worker
	// restart). Defaults to 2s.
	CrashRecoverySecs float64
	// DataParallelism caps the real data-path worker width an epoch may
	// use. A grant's thread count maps to actual goroutines inside
	// OnlineQuery.ProcessBatch (partitioned accumulation with a
	// deterministic merge, see internal/aqp); on machines with fewer
	// cores than the simulated 20-thread testbed this cap keeps the
	// physical fan-out bounded without changing the virtual-time
	// accounting. Zero means grants pass through unclamped.
	DataParallelism int
	// Admission, when set, gates arrivals: jobs whose estimated completion
	// cannot meet their deadline under current load, or that arrive while
	// the active set is at the controller's bound, are refused or shed per
	// the controller's backpressure policy. Nil admits everything (the
	// closed-workload behaviour).
	Admission *admission.Controller
	// WatchdogSlack, when > 0, arms the epoch watchdog: a running epoch is
	// preempted after slack × the job's predicted epoch cost, re-queueing
	// the job with a penalty and a rollback to its last checkpoint. Each
	// consecutive preemption doubles the job's next budget so genuinely
	// long epochs eventually complete. Requires a Store (the rollback
	// replays persisted state). Zero disables the watchdog.
	WatchdogSlack float64
	// WatchdogPenaltySecs is the virtual delay before a preempted job
	// rejoins the queue. Defaults to 5s.
	WatchdogPenaltySecs float64
	// AgingRounds, when > 0, wraps the scheduler in a starvation guard: a
	// pending job passed over for more than AgingRounds consecutive
	// arbitration rounds is forced a minimal grant. Zero leaves the policy
	// unwrapped.
	AgingRounds int
}

// DefaultAQPExecConfig mirrors the paper's 20-thread server, scaled to a
// memory budget appropriate for the chosen dataset scale factor.
func DefaultAQPExecConfig(memMB float64) AQPExecConfig {
	return AQPExecConfig{
		Threads:             20,
		MemMB:               memMB,
		CheckpointSecsPerMB: 0.02,
		CheckpointBaseSecs:  1.0,
		RecordHistory:       true,
	}
}

// AQPExecutor drives a workload of AQP jobs through a scheduling policy
// over virtual time: Algorithm 1's loop realized as a discrete-event
// program. It owns the thread/memory pool, applies grants, charges epoch
// costs (including checkpoint overheads and memory-oversubscription
// pressure), observes per-epoch state, and stops jobs per the shared
// multi-tenant system rules (estimated attainment, envelope convergence,
// deadline expiry, data exhaustion).
type AQPExecutor struct {
	eng   *sim.Engine
	pool  *cluster.CPUPool
	sched AQPScheduler
	repo  *estimate.Repository
	cfg   AQPExecConfig

	jobs    []*AQPJob
	pending []*AQPJob
	running map[string]*AQPJob
	// limbo counts jobs in neither queue: preempted or crashed, waiting
	// out a penalty/recovery delay before re-enqueueing. Admission counts
	// them — they still occupy a slot of the bounded active set.
	limbo int

	runningEstMem float64
	arbPending    bool
	terminalCount int
	storeErr      error
	rec           RecoveryStats
	overload      OverloadStats
	guard         *StarvationGuardAQP
	met           *execMetrics

	// Arbitration scratch, reused across rounds so the per-epoch control
	// plane stays allocation-free: the context and its Pending/Running
	// slices are valid only for the duration of one Assign call.
	arbCtx     AQPContext
	arbPend    []*AQPJob
	arbRunning []*AQPJob

	// ownsEngine marks an executor with a private engine (it may Stop the
	// engine when its workload completes); onDone notifies a composing
	// driver (the unified executor) instead.
	ownsEngine bool
	onDone     func()
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
	if repo == nil {
		repo = estimate.NewRepository()
	}
	if cfg.CrashRecoverySecs <= 0 {
		cfg.CrashRecoverySecs = 2
	}
	if cfg.WatchdogPenaltySecs <= 0 {
		cfg.WatchdogPenaltySecs = 5
	}
	if cfg.Tracer == nil {
		cfg.Tracer = defaultTracer
	}
	e := &AQPExecutor{
		eng:     eng,
		pool:    cluster.NewCPUPool(cfg.Threads, cfg.MemMB),
		sched:   sched,
		repo:    repo,
		cfg:     cfg,
		running: make(map[string]*AQPJob),
		met:     newExecMetrics(cfg.Obs, "aqp"),
	}
	if cfg.AgingRounds > 0 {
		e.guard = NewStarvationGuardAQP(sched, cfg.AgingRounds)
		e.sched = e.guard
	}
	return e
}

// Engine exposes the virtual clock (tests and metric snapshots use it).
func (e *AQPExecutor) Engine() *sim.Engine { return e.eng }

// Tracer exposes the configured tracer (nil when tracing is disabled);
// the serving mode's trace-tail op reads it.
func (e *AQPExecutor) Tracer() *Tracer { return e.cfg.Tracer }

// Store exposes the configured checkpoint store (nil when there is none);
// the serving mode flushes it at each journal step.
func (e *AQPExecutor) Store() *CheckpointStore { return e.cfg.Store }

// Jobs returns every submitted job.
func (e *AQPExecutor) Jobs() []*AQPJob { return e.jobs }

// Recovery reports the executor's fault-recovery counters.
func (e *AQPExecutor) Recovery() RecoveryStats { return e.rec }

// Overload reports the executor's overload-protection counters.
func (e *AQPExecutor) Overload() OverloadStats {
	o := e.overload
	if e.guard != nil {
		o.ForcedGrants = e.guard.ForcedGrants()
	}
	return o
}

// Admission exposes the configured admission controller (nil when
// admission is disabled).
func (e *AQPExecutor) Admission() *admission.Controller { return e.cfg.Admission }

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
	if e.cfg.Admission != nil {
		e.cfg.Admission.JobDone(j.tenant)
	}
	e.met.detached.Inc()
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceDetach, Job: j.ID()})
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

// register is the shared arrival path behind Submit and Recover.
func (e *AQPExecutor) register(j *AQPJob, at sim.Time, recovered bool) {
	if e.cfg.DataParallelism > 0 {
		if q, ok := j.query.(interface{ SetMaxDataWidth(int) }); ok {
			q.SetMaxDataWidth(e.cfg.DataParallelism)
		}
	}
	// Capture the pristine state before any processing: the restart-from-
	// scratch fallback when no usable checkpoint survives a failure.
	if e.cfg.Store != nil && j.pristine == nil {
		if data, err := e.encodeCheckpoint(j); err != nil {
			e.storeErr = fmt.Errorf("core: pristine checkpoint %s: %w", j.ID(), err)
		} else {
			j.pristine = data
		}
	}
	e.jobs = append(e.jobs, j)
	e.eng.ScheduleAt(at, func() {
		j.arrival = e.eng.Now()
		j.arrived = true
		j.status = StatusPending
		e.met.arrivals.Inc()
		if recovered {
			// Reattach to the persisted checkpoint at the first grant. With
			// no store the fresh in-memory state is all there is, and the
			// job simply replays from the beginning.
			if e.cfg.Store != nil {
				j.needsRestore = true
			}
			// The job passed admission in a previous incarnation; restore
			// its tenant's concurrent-job slot so the cap stays closed.
			if e.cfg.Admission != nil {
				e.cfg.Admission.AdoptRecovered(j.tenant)
			}
			e.rec.Reattached++
			e.met.reattached.Inc()
		} else if e.cfg.Admission != nil && !e.admit(j) {
			return
		}
		detail := ""
		if recovered {
			detail = "recovered"
		}
		e.enqueue(j)
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceArrive, Job: j.ID(), Tenant: j.tenant, Detail: detail})
		// Deadline watchdog: a job still waiting in the queue when its
		// deadline passes is terminated right there, not at some later
		// epoch boundary.
		e.eng.Schedule(j.DeadlineSecs(), func() {
			if j.status == StatusPending && !j.detached {
				e.removePending(j)
				e.finishJob(j, StatusExpired)
				e.scheduleArbitrate()
			}
		})
		e.scheduleArbitrate()
	})
}

// admit runs the admission decision for an arriving job, reporting
// whether the job entered the wait queue. Refused jobs (and shed victims)
// terminate immediately with StatusRejected/StatusShed.
func (e *AQPExecutor) admit(j *AQPJob) bool {
	ctrl := e.cfg.Admission
	depth := len(e.pending) + len(e.running) + e.limbo
	tenantPending := 0
	for _, p := range e.pending {
		if p.tenant == j.tenant {
			tenantPending++
		}
	}
	req := admission.Request{
		ID:                j.ID(),
		QueueDepth:        depth,
		EstCompletionSecs: e.estCompletionSecs(j),
		RemainingSecs:     j.DeadlineSecs(),
		Tenant:            j.tenant,
		Now:               e.eng.Now().Seconds(),
		TenantPending:     tenantPending,
	}
	dec := ctrl.Decide(req)
	switch dec.Verdict {
	case admission.DegradeBestEffort:
		j.bestEffort = true
		e.overload.Degraded++
		e.met.degraded.Inc()
		return true
	case admission.RejectJob:
		j.rejectErr = dec.Err
		j.retryAfterSecs = dec.RetryAfterSecs
		e.rejectJob(j, StatusRejected, dec.Reason)
		return false
	case admission.ShedVictim:
		v := e.shedVictim(j)
		if v == nil {
			ctrl.ResolveShed(req, false)
			j.rejectErr = admission.ShedRefusalErr(j.ID(), depth, ctrl.Config().MaxQueueDepth)
			e.rejectJob(j, StatusRejected, "queue-full no-victim")
			return false
		}
		ctrl.ResolveShed(req, true)
		e.removePending(v)
		e.rejectJob(v, StatusShed, fmt.Sprintf("for %s", j.ID()))
		return true
	default:
		return true
	}
}

// estCompletionSecs estimates an arrival's queueing delay plus first
// service under the current load: the queued and running jobs' next-epoch
// costs spread over the whole pool, plus the arrival's own first epoch.
func (e *AQPExecutor) estCompletionSecs(j *AQPJob) float64 {
	var backlog float64
	for _, p := range e.pending {
		backlog += p.nextEpochSecsGuess()
	}
	for _, r := range e.running {
		backlog += r.nextEpochSecsGuess()
	}
	return backlog/float64(e.pool.TotalThreads()) + j.nextEpochSecsGuess()
}

// shedVictim picks the queued job with strictly lower value than the
// arrival, preferring best-effort jobs, then lower attainment progress,
// then later deadlines (less urgent), with the ID as the deterministic
// final tiebreak. It returns nil when the arrival itself is the cheapest
// job in sight — evicting an equal-value job would just churn the queue.
func (e *AQPExecutor) shedVictim(arrival *AQPJob) *AQPJob {
	var victim *AQPJob
	for _, p := range e.pending {
		if victim == nil || aqpLessValuable(p, victim) {
			victim = p
		}
	}
	if victim != nil && aqpLessValuable(victim, arrival) {
		return victim
	}
	return nil
}

// aqpLessValuable orders jobs by shedding preference: best-effort first,
// then lower attainment progress (less sunk work toward completion), then
// later absolute deadline (less urgent), then larger ID.
func aqpLessValuable(a, b *AQPJob) bool {
	if a.bestEffort != b.bestEffort {
		return a.bestEffort
	}
	pa, pb := a.AttainmentProgress(), b.AttainmentProgress()
	if pa != pb {
		return pa < pb
	}
	da := a.arrival.Seconds() + a.DeadlineSecs()
	db := b.arrival.Seconds() + b.DeadlineSecs()
	if da != db {
		return da > db
	}
	return a.id > b.id
}

// rejectJob terminates a job outside the normal stop path: refused at the
// admission gate (StatusRejected) or evicted from the queue
// (StatusShed). No history is recorded — the job never produced a curve
// worth learning from.
func (e *AQPExecutor) rejectJob(j *AQPJob, status JobStatus, detail string) {
	kind := TraceReject
	if status == StatusShed {
		kind = TraceShed
		e.overload.Shed++
		e.met.shed.Inc()
		// A shed victim was admitted earlier and held a tenant slot.
		if e.cfg.Admission != nil {
			e.cfg.Admission.JobDone(j.tenant)
		}
	} else {
		e.overload.Rejected++
		e.met.rejected.Inc()
	}
	if e.cfg.Store != nil {
		e.cfg.Store.Remove(j.ID())
	}
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: kind, Job: j.ID(), Tenant: j.tenant, Detail: detail})
	j.status = status
	j.endTime = e.eng.Now()
	e.met.outcome(status)
	e.terminalCount++
	if e.terminalCount == len(e.jobs) {
		if e.ownsEngine {
			e.eng.Stop()
		} else if e.onDone != nil {
			e.onDone()
		}
	}
}

// enqueue appends to the wait queue, tracking its high-water mark.
func (e *AQPExecutor) enqueue(j *AQPJob) {
	e.pending = append(e.pending, j)
	if d := len(e.pending); d > e.overload.MaxPendingDepth {
		e.overload.MaxPendingDepth = d
	}
	e.met.pendingJobs.Set(float64(len(e.pending)))
}

// Validate checks the configuration invariants Run enforces, for drivers
// (the serving mode) that advance the engine incrementally instead of
// calling Run.
func (e *AQPExecutor) Validate() error {
	if e.cfg.Faults.Enabled() && e.cfg.Store == nil {
		return errors.New("core: AQP fault injection requires a CheckpointStore (recovery replays persisted state)")
	}
	if e.cfg.WatchdogSlack > 0 && e.cfg.Store == nil {
		return errors.New("core: AQP epoch watchdog requires a CheckpointStore (preemption rolls back to persisted state)")
	}
	return nil
}

// Run drives the simulation until every submitted job is terminal (or no
// events remain, which means the workload deadlocked — reported as an
// error).
func (e *AQPExecutor) Run() error {
	if err := e.Validate(); err != nil {
		return err
	}
	e.eng.Run()
	if e.storeErr != nil {
		return e.storeErr
	}
	if e.terminalCount != len(e.jobs) {
		return fmt.Errorf("core: %d of %d AQP jobs did not terminate", len(e.jobs)-e.terminalCount, len(e.jobs))
	}
	return nil
}

// scheduleArbitrate coalesces all same-instant events (arrivals, epoch
// completions) into one arbitration decision, so the policy sees the
// complete queue state of the instant.
func (e *AQPExecutor) scheduleArbitrate() {
	if e.arbPending {
		return
	}
	e.arbPending = true
	e.eng.Schedule(0, func() {
		e.arbPending = false
		e.arbitrate()
	})
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

// runningJobs presents the running set sorted by job ID: map iteration
// order is randomized per run, and policies that read ctx.Running must
// see a deterministic queue state (the bit-identical replay guarantees
// of the chaos suites depend on it).
func (e *AQPExecutor) runningJobs() []*AQPJob {
	out := e.arbRunning[:0]
	for _, j := range e.running {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	e.arbRunning = out
	return out
}

// startEpoch applies one grant: books resources, charges resume overhead
// if the job was checkpointed, prices the running epoch's batches, and
// schedules the event that ends the epoch. The batches run when the epoch
// completes — an epoch cut short runs none — so between events every job's
// query state is the state of its last completed epoch.
func (e *AQPExecutor) startEpoch(g AQPGrant) {
	j := g.Job
	if j.status.Terminal() || e.running[j.ID()] != nil {
		return
	}
	if err := e.pool.Allocate(j.ID(), g.Threads, g.ReserveMemMB); err != nil {
		return // raced against another grant this round; stay pending
	}
	e.removePending(j)
	j.status = StatusRunning
	e.running[j.ID()] = j
	e.runningEstMem += j.EstMemMB()
	e.met.grants.Inc()
	e.met.runningJobs.Set(float64(len(e.running)))
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceGrant, Job: j.ID(), Threads: g.Threads})

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
	// Epoch watchdog: a runaway epoch (the cost model gone degenerate, a
	// stuck data source, pathological pressure) is cut short once it
	// exceeds slack × the job's predicted epoch cost. Strikes double the
	// budget so a genuinely long epoch eventually completes.
	watchAt := math.Inf(1)
	if e.cfg.WatchdogSlack > 0 {
		budget := e.cfg.WatchdogSlack * j.nextEpochSecsGuess() * math.Pow(2, float64(j.watchdogStrikes))
		if epochSecs > budget {
			watchAt = budget
		}
	}
	// The injector may interrupt the epoch mid-flight: the worker dies,
	// its in-flight results are lost, and the job rolls back to its last
	// valid checkpoint at the next grant. The injector's draw comes first
	// so arming the watchdog never perturbs the fault sequence; an earlier
	// crash wins over a later watchdog preemption.
	if after, crashed := e.cfg.Faults.EpochCrash(epochSecs); crashed && after <= watchAt {
		e.eng.Schedule(after, func() { e.crashEpoch(j, after) })
		return
	}
	if !math.IsInf(watchAt, 1) {
		e.eng.Schedule(watchAt, func() { e.preemptEpoch(j, watchAt) })
		return
	}
	e.eng.Schedule(epochSecs, func() {
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

// preemptEpoch handles the watchdog firing wastedSecs into a running
// epoch: the epoch's in-flight results are lost, resources free
// immediately, and the job rejoins the queue after the penalty delay with
// a forced rollback to its last valid checkpoint (like a crash, minus the
// failure-detection machinery). The rollback goes through Store.Load even
// though no batch ran: read faults and corrupt frames must still fire.
func (e *AQPExecutor) preemptEpoch(j *AQPJob, wastedSecs float64) {
	e.pool.Release(j.ID())
	delete(e.running, j.ID())
	e.runningEstMem -= j.EstMemMB()
	e.met.runningJobs.Set(float64(len(e.running)))
	j.status = StatusPending
	j.needsRestore = true
	j.processingSecs += wastedSecs
	j.watchdogStrikes++
	e.overload.WatchdogPreemptions++
	e.met.watchdogPreempts.Inc()
	e.overload.WatchdogWastedSecs += wastedSecs
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceWatchdog, Job: j.ID(),
			Detail: fmt.Sprintf("wasted=%.1fs strikes=%d", wastedSecs, j.watchdogStrikes)})
	}
	e.limbo++
	e.eng.Schedule(e.cfg.WatchdogPenaltySecs, func() {
		e.limbo--
		// The deadline watchdog may have expired the job while it waited
		// out the penalty.
		if j.status.Terminal() {
			return
		}
		e.enqueue(j)
		e.scheduleArbitrate()
	})
	e.scheduleArbitrate()
}

// encodeCheckpoint serializes the job's state, timing the encode apart
// from the store's disk write.
func (e *AQPExecutor) encodeCheckpoint(j *AQPJob) ([]byte, error) {
	start := time.Now()
	data, err := j.query.Checkpoint()
	e.met.ckptEncode.Observe(time.Since(start).Seconds())
	return data, err
}

// resumeJob replays the job's persisted state and returns the virtual
// resume cost. An unusable checkpoint (missing, corrupt, or persistently
// failing I/O) falls back to a from-scratch restart off the pristine
// state; any other failure is fatal to the run.
func (e *AQPExecutor) resumeJob(j *AQPJob) float64 {
	state := j.query.StateMemMB()
	cost := 2 * (e.cfg.CheckpointBaseSecs + state*e.cfg.CheckpointSecsPerMB)
	if e.cfg.Store == nil {
		e.met.resumes.Inc()
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceResume, Job: j.ID()})
		return cost
	}
	rollingBack := j.needsRestore
	data, fromMemory, err := e.cfg.Store.Load(j.ID())
	cost += e.cfg.Store.TakePenaltySecs()
	if err == nil {
		err = j.query.Restore(data)
		if err == nil {
			if fromMemory {
				cost = 0.1 * e.cfg.CheckpointBaseSecs
			}
			j.needsRestore = false
			if rollingBack {
				e.rec.Rollbacks++
				e.met.rollbacks.Inc()
			}
			e.met.resumes.Inc()
			if e.cfg.Tracer.Enabled() {
				e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceResume, Job: j.ID(),
					Detail: fmt.Sprintf("fromMemory=%v", fromMemory)})
			}
			return cost
		}
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTransient) {
		if serr := e.scratchRestart(j, err); serr != nil {
			e.storeErr = serr
		}
	} else {
		e.storeErr = fmt.Errorf("core: resume %s: %w", j.ID(), err)
	}
	return cost
}

// scratchRestart rewinds the job to its pristine state: the persisted
// checkpoint is unusable, so the job replays from the beginning — which,
// with deterministic data, reproduces the fault-free observation sequence
// exactly.
func (e *AQPExecutor) scratchRestart(j *AQPJob, cause error) error {
	if j.pristine == nil {
		return fmt.Errorf("core: restart %s: no pristine state: %w", j.ID(), cause)
	}
	// Remove first: a frame staged as an encoder reads the state Restore replaces.
	e.cfg.Store.Remove(j.ID())
	if err := j.query.Restore(j.pristine); err != nil {
		return fmt.Errorf("core: restart %s: %w", j.ID(), err)
	}
	j.resetForScratchRestart()
	e.rec.ScratchRestarts++
	e.met.scratchRestarts.Inc()
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceRestart, Job: j.ID(),
		Detail: restartCause(cause)})
	return nil
}

// restartCause classifies the checkpoint failure that forced a restart.
func restartCause(err error) string {
	switch {
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrTransient):
		return "transient"
	default:
		return "error"
	}
}

// crashEpoch handles a worker crash wastedSecs into a running epoch: the
// epoch's results are lost, resources free immediately, and the job
// rejoins the queue after the crash-recovery delay with a forced rollback
// to its last valid checkpoint.
func (e *AQPExecutor) crashEpoch(j *AQPJob, wastedSecs float64) {
	e.pool.Release(j.ID())
	delete(e.running, j.ID())
	e.runningEstMem -= j.EstMemMB()
	e.met.runningJobs.Set(float64(len(e.running)))
	j.status = StatusPending
	j.needsRestore = true
	j.processingSecs += wastedSecs
	if !j.crashPending {
		j.crashPending = true
		j.crashedSince = e.eng.Now()
	}
	e.rec.Crashes++
	e.met.crashes.Inc()
	e.rec.WastedWorkSecs += wastedSecs
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceCrash, Job: j.ID(),
			Detail: fmt.Sprintf("wasted=%.1fs", wastedSecs)})
	}
	e.limbo++
	e.eng.Schedule(e.cfg.CrashRecoverySecs, func() {
		e.limbo--
		// The deadline watchdog may have expired the job while it was
		// recovering.
		if j.status.Terminal() {
			return
		}
		e.enqueue(j)
		e.scheduleArbitrate()
	})
	e.scheduleArbitrate()
}

// finishEpoch observes the completed epoch and applies the shared stop
// rules.
func (e *AQPExecutor) finishEpoch(j *AQPJob, epochSecs, normWork float64) {
	e.pool.Release(j.ID())
	delete(e.running, j.ID())
	e.runningEstMem -= j.EstMemMB()
	e.met.runningJobs.Set(float64(len(e.running)))
	e.met.epochs.Inc()
	e.met.epochSecs.Observe(epochSecs)
	j.everRan = true
	j.lastRelease = e.eng.Now()
	j.epochs++
	j.processingSecs += epochSecs
	j.normSecs += normWork
	j.watchdogStrikes = 0 // completed within budget
	if j.crashPending {
		j.crashPending = false
		e.rec.Recovered++
		e.met.recovered.Inc()
		e.rec.RecoveryLatencySecs += (e.eng.Now() - j.crashedSince).Seconds()
	}
	j.observeEpoch(e.eng.Now())
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceEpochDone, Job: j.ID(),
			Detail: fmt.Sprintf("epoch=%d est-acc=%.3f", j.epochs, j.EstimatedAccuracy())})
	}

	now := e.eng.Now()
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
		j.status = StatusPending
		e.enqueue(j)
		// Persist the deferred job's state; if it is re-granted this very
		// instant the checkpoint is simply never replayed — nor, if a later
		// save overtakes it on a write-behind store, ever encoded.
		if e.cfg.Store != nil {
			err := e.cfg.Store.SaveLazy(j.ID(), func() ([]byte, error) { return e.encodeCheckpoint(j) })
			j.deferredPenaltySecs += e.cfg.Store.TakePenaltySecs()
			if errors.Is(err, ErrTransient) {
				// The save failed for good, but any previously persisted
				// checkpoint is now behind the in-memory bookkeeping, so
				// rolling back to it would desynchronize the job. Replay
				// from scratch instead — deterministic data makes that
				// exact, just slower.
				if serr := e.scratchRestart(j, err); serr != nil {
					e.storeErr = serr
				}
			} else if err != nil {
				e.storeErr = err
			} else {
				e.met.checkpoints.Inc()
				e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceCheckpoint, Job: j.ID()})
			}
		}
	}
	e.scheduleArbitrate()
}

func (e *AQPExecutor) finishJob(j *AQPJob, status JobStatus) {
	if e.cfg.Store != nil {
		e.cfg.Store.Remove(j.ID())
	}
	// Every finishJob target was admitted (it reached the queue), so its
	// tenant's concurrent-job slot opens here.
	if e.cfg.Admission != nil {
		e.cfg.Admission.JobDone(j.tenant)
	}
	if j.crashPending {
		// Expired while still recovering: close the latency window without
		// counting a successful recovery.
		j.crashPending = false
		e.rec.RecoveryLatencySecs += (e.eng.Now() - j.crashedSince).Seconds()
	}
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceStop, Job: j.ID(), Tenant: j.tenant, Detail: status.String()})
	j.status = status
	j.endTime = e.eng.Now()
	j.stopAcc = j.query.Accuracy()
	e.met.outcome(status)
	e.terminalCount++
	if e.terminalCount == len(e.jobs) {
		// Workload complete: drop leftover watchdog timers so the clock
		// reflects the real makespan (or tell the composing driver).
		if e.ownsEngine {
			e.eng.Stop()
		} else if e.onDone != nil {
			e.onDone()
		}
	}
	if e.cfg.RecordHistory {
		e.repo.AddAQP(estimate.AQPRecord{
			ID:        j.ID(),
			Query:     j.query.Name(),
			Class:     j.class,
			BatchRows: j.batchRows,
			Curve:     j.RealtimeCurve(),
		})
	}
}

func (e *AQPExecutor) removePending(j *AQPJob) {
	for i, p := range e.pending {
		if p == j {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			e.met.pendingJobs.Set(float64(len(e.pending)))
			return
		}
	}
}
