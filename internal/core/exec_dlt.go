package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rotary/internal/admission"
	"rotary/internal/cluster"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/obs"
	"rotary/internal/sim"
)

// DLTExecConfig sizes the DLT cluster. The paper's testbed has 4 GPUs
// with 8 GB each.
type DLTExecConfig struct {
	GPUs     int
	GPUMemMB float64
	// SwapBaseSecs and SwapSecsPerParamM price evicting a job to disk and
	// reloading it onto a device (checkpoint + restore + context setup).
	SwapBaseSecs     float64
	SwapSecsPerParam float64
	// RecordHistory appends completed jobs to the repository.
	RecordHistory bool
	// Store, when set, actually persists deferred jobs' trainer state and
	// restores it when the job swaps back onto a device — required for
	// fault injection, where recovery replays persisted state.
	Store *CheckpointStore
	// Faults, when set, deals deterministic device crashes into running
	// epochs (checkpoint I/O faults are dealt by arming the Store with the
	// same injector).
	Faults *faults.Injector
	// CrashRecoverySecs is the virtual time between a device crash and the
	// job rejoining the pending queue. Defaults to 2s. The device itself
	// stays down for the injector's repair delay.
	CrashRecoverySecs float64
	// Tracer, when set, records the arbitration timeline. Nil adopts the
	// process default tracer if one was installed (SetDefaultTracer).
	Tracer *Tracer
	// Obs selects the metrics registry (see AQPExecConfig.Obs). Nil uses
	// the process-wide obs.Default().
	Obs *obs.Registry
	// Admission, when set, gates arrivals exactly as on the AQP side: see
	// AQPExecConfig.Admission.
	Admission *admission.Controller
	// WatchdogSlack arms the epoch watchdog (see
	// AQPExecConfig.WatchdogSlack); requires a Store. Zero disables it.
	WatchdogSlack float64
	// WatchdogPenaltySecs is the re-queue delay after a watchdog
	// preemption. Defaults to 5s.
	WatchdogPenaltySecs float64
	// AgingRounds, when > 0, wraps the scheduler in a starvation guard
	// (see AQPExecConfig.AgingRounds).
	AgingRounds int
}

// DefaultDLTExecConfig mirrors the paper's 4 × 8 GB testbed.
func DefaultDLTExecConfig() DLTExecConfig {
	return DLTExecConfig{
		GPUs:             4,
		GPUMemMB:         8192,
		SwapBaseSecs:     3.0,
		SwapSecsPerParam: 0.05,
		RecordHistory:    true,
	}
}

// DLTExecutor drives a DLT workload through a scheduling policy over
// virtual time: one evaluation epoch per placement, TTR recording, the
// convergence delta check, deadline expiry, swap overheads for evicted
// jobs, and OOM detection when a placement's actual footprint exceeds the
// device (the failure mode TME's padding exists to prevent).
type DLTExecutor struct {
	eng   *sim.Engine
	gpus  *cluster.GPUCluster
	sched DLTScheduler
	repo  *estimate.Repository
	ttr   *dlt.TTR
	cfg   DLTExecConfig

	jobs    []*DLTJob
	pending []*DLTJob
	running map[string]*DLTJob
	// limbo counts jobs in neither queue: preempted or crashed, waiting
	// out a penalty/recovery delay before re-enqueueing. Admission counts
	// them — they still occupy a slot of the bounded active set.
	limbo int

	// roundRunning counts the jobs still mid-epoch in the current
	// scheduling round. Algorithm 3 is round-based: every round rebuilds
	// the priority queue over all active jobs and assigns every device;
	// the next round starts when all placed jobs complete their epoch.
	roundRunning int
	// deviceLastJob tracks the last occupant of each device so a job that
	// is continuously prioritized onto the same device avoids the
	// checkpoint/restore/warm-up swap cost (§III-C's third advantage).
	deviceLastJob map[int]string

	arbPending    bool
	terminalCount int
	oomEvents     int
	storeErr      error
	rec           RecoveryStats
	overload      OverloadStats
	guard         *StarvationGuardDLT
	met           *execMetrics

	// Arbitration scratch, reused across rounds (see AQPExecutor): the
	// context and its slices are valid only during one Place call.
	arbCtx     DLTContext
	arbPend    []*DLTJob
	arbRunning []*DLTJob

	ownsEngine bool
	onDone     func()
}

// NewDLTExecutor builds an executor over a fresh engine and GPU cluster.
func NewDLTExecutor(cfg DLTExecConfig, sched DLTScheduler, repo *estimate.Repository) *DLTExecutor {
	e := NewDLTExecutorOn(sim.New(), cfg, sched, repo)
	e.ownsEngine = true
	return e
}

// NewDLTExecutorOn builds an executor over an existing engine, so that
// multiple executors (the unified AQP+DLT system of §VI) share one
// virtual clock.
func NewDLTExecutorOn(eng *sim.Engine, cfg DLTExecConfig, sched DLTScheduler, repo *estimate.Repository) *DLTExecutor {
	if cfg.GPUs <= 0 {
		cfg.GPUs = 4
	}
	if cfg.GPUMemMB <= 0 {
		cfg.GPUMemMB = 8192
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
	e := &DLTExecutor{
		eng:           eng,
		gpus:          cluster.NewUniformGPUCluster(cfg.GPUs, cfg.GPUMemMB),
		sched:         sched,
		repo:          repo,
		ttr:           dlt.NewTTR(),
		cfg:           cfg,
		running:       make(map[string]*DLTJob),
		deviceLastJob: make(map[int]string),
		met:           newExecMetrics(cfg.Obs, "dlt"),
	}
	if cfg.AgingRounds > 0 {
		e.guard = NewStarvationGuardDLT(sched, cfg.AgingRounds)
		e.sched = e.guard
	}
	return e
}

// Engine exposes the virtual clock.
func (e *DLTExecutor) Engine() *sim.Engine { return e.eng }

// Tracer exposes the configured tracer (nil when tracing is disabled).
func (e *DLTExecutor) Tracer() *Tracer { return e.cfg.Tracer }

// Jobs returns every submitted job.
func (e *DLTExecutor) Jobs() []*DLTJob { return e.jobs }

// TTR exposes the training-time recorder (Table III reads its overhead).
func (e *DLTExecutor) TTR() *dlt.TTR { return e.ttr }

// OOMEvents reports placements that exceeded device memory.
func (e *DLTExecutor) OOMEvents() int { return e.oomEvents }

// Recovery reports the executor's fault-recovery counters.
func (e *DLTExecutor) Recovery() RecoveryStats { return e.rec }

// Overload reports the executor's overload-protection counters.
func (e *DLTExecutor) Overload() OverloadStats {
	o := e.overload
	if e.guard != nil {
		o.ForcedGrants = e.guard.ForcedGrants()
	}
	return o
}

// Admission exposes the configured admission controller (nil when
// admission is disabled).
func (e *DLTExecutor) Admission() *admission.Controller { return e.cfg.Admission }

// Submit schedules a job's arrival.
func (e *DLTExecutor) Submit(j *DLTJob, at sim.Time) {
	if e.cfg.Store != nil && j.pristine == nil {
		if data, err := j.job.Checkpoint(); err != nil {
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
		if e.cfg.Admission != nil && !e.admit(j) {
			return
		}
		e.enqueue(j)
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceArrive, Job: j.ID(), Tenant: j.tenant})
		e.scheduleArbitrate()
	})
}

// admit runs the admission decision for an arriving job, reporting
// whether the job entered the wait queue (see AQPExecutor.admit).
func (e *DLTExecutor) admit(j *DLTJob) bool {
	ctrl := e.cfg.Admission
	depth := len(e.pending) + len(e.running) + e.limbo
	remaining := math.Inf(1)
	if secs, ok := j.crit.Deadline.DeadlineSeconds(); ok {
		remaining = secs
	}
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
		RemainingSecs:     remaining,
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
		e.rejectJob(j, StatusRejected, dec.Reason)
		return false
	case admission.ShedVictim:
		v := e.shedVictim(j)
		if v == nil {
			ctrl.ResolveShed(req, false)
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
// epoch under the current load, spread over the device fleet.
func (e *DLTExecutor) estCompletionSecs(j *DLTJob) float64 {
	var backlog float64
	for _, p := range e.pending {
		backlog += p.nextEpochSecsGuess()
	}
	for _, r := range e.running {
		backlog += r.nextEpochSecsGuess()
	}
	return backlog/float64(e.gpus.Size()) + j.nextEpochSecsGuess()
}

// shedVictim picks the queued job with strictly lower value than the
// arrival (see AQPExecutor.shedVictim).
func (e *DLTExecutor) shedVictim(arrival *DLTJob) *DLTJob {
	var victim *DLTJob
	for _, p := range e.pending {
		if victim == nil || dltLessValuable(p, victim) {
			victim = p
		}
	}
	if victim != nil && dltLessValuable(victim, arrival) {
		return victim
	}
	return nil
}

// dltLessValuable orders jobs by shedding preference: best-effort first,
// then lower attainment progress, then larger epoch bound (less urgent),
// then larger ID.
func dltLessValuable(a, b *DLTJob) bool {
	if a.bestEffort != b.bestEffort {
		return a.bestEffort
	}
	pa, pb := a.AttainmentProgress(nil), b.AttainmentProgress(nil)
	if pa != pb {
		return pa < pb
	}
	if a.MaxEpochs() != b.MaxEpochs() {
		return a.MaxEpochs() > b.MaxEpochs()
	}
	return a.id > b.id
}

// rejectJob terminates a job outside the normal stop path (see
// AQPExecutor.rejectJob).
func (e *DLTExecutor) rejectJob(j *DLTJob, status JobStatus, detail string) {
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
func (e *DLTExecutor) enqueue(j *DLTJob) {
	e.pending = append(e.pending, j)
	if d := len(e.pending); d > e.overload.MaxPendingDepth {
		e.overload.MaxPendingDepth = d
	}
	e.met.pendingJobs.Set(float64(len(e.pending)))
}

// Run drives the simulation until every job is terminal.
func (e *DLTExecutor) Run() error {
	if e.cfg.Faults.Enabled() && e.cfg.Store == nil {
		return errors.New("core: DLT fault injection requires a CheckpointStore (recovery replays persisted state)")
	}
	if e.cfg.WatchdogSlack > 0 && e.cfg.Store == nil {
		return errors.New("core: DLT epoch watchdog requires a CheckpointStore (preemption rolls back to persisted state)")
	}
	e.eng.Run()
	if e.storeErr != nil {
		return e.storeErr
	}
	if e.terminalCount != len(e.jobs) {
		return fmt.Errorf("core: %d of %d DLT jobs did not terminate", len(e.jobs)-e.terminalCount, len(e.jobs))
	}
	return nil
}

// scheduleArbitrate coalesces all same-instant events (arrivals, epoch
// completions) into a single arbitration decision, so the policy always
// sees the complete queue state of the instant — not a prefix of it.
func (e *DLTExecutor) scheduleArbitrate() {
	if e.arbPending {
		return
	}
	e.arbPending = true
	e.eng.Schedule(0, func() {
		e.arbPending = false
		e.arbitrate()
	})
}

func (e *DLTExecutor) arbitrate() {
	// Round barrier: decisions are only taken between rounds, when every
	// previously placed job has finished its epoch.
	if e.roundRunning > 0 || len(e.pending) == 0 {
		return
	}
	free := e.gpus.FreeDevices()
	if len(free) == 0 {
		return
	}
	e.arbPend = append(e.arbPend[:0], e.pending...)
	e.arbCtx = DLTContext{
		Now:      e.eng.Now(),
		Pending:  e.arbPend,
		Running:  e.runningJobs(),
		FreeGPUs: free,
	}
	for _, p := range e.sched.Place(&e.arbCtx) {
		e.startEpoch(p)
	}
}

// runningJobs presents the running set sorted by job ID — see
// AQPExecutor.runningJobs for why determinism matters here.
func (e *DLTExecutor) runningJobs() []*DLTJob {
	out := e.arbRunning[:0]
	for _, j := range e.running {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	e.arbRunning = out
	return out
}

func (e *DLTExecutor) startEpoch(p DLTPlacement) {
	j := p.Job
	if j.status.Terminal() || e.running[j.ID()] != nil {
		return
	}
	// The cluster admits the placement by its declared estimate; the
	// actual footprint check below models the OOM the estimate may miss.
	if err := e.gpus.Assign(j.ID(), p.Device, p.EstMemMB); err != nil {
		return
	}
	e.removePending(j)
	j.status = StatusRunning
	e.running[j.ID()] = j
	e.roundRunning++
	e.met.grants.Inc()
	e.met.runningJobs.Set(float64(len(e.running)))
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TracePlace, Job: j.ID(), Device: p.Device})

	actualMB := j.job.PeakMemoryMB()
	if dev, ok := e.deviceByID(p.Device); ok && actualMB > dev.MemMB {
		// Out of memory: the epoch aborts after the allocation failure;
		// the job pays a fraction of an epoch and returns to the queue.
		e.oomEvents++
		e.met.ooms.Inc()
		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceOOM, Job: j.ID(), Device: p.Device,
				Detail: fmt.Sprintf("need=%.0fMB", actualMB)})
		}
		e.deviceLastJob[p.Device] = j.ID()
		waste := 0.1*float64(j.job.StepsPerEpoch())*j.job.StepSeconds() + dlt.WarmupSeconds
		e.eng.Schedule(waste, func() {
			e.gpus.Release(j.ID())
			delete(e.running, j.ID())
			e.roundRunning--
			e.met.runningJobs.Set(float64(len(e.running)))
			j.status = StatusPending
			j.processingSecs += waste
			e.enqueue(j)
			e.scheduleArbitrate()
		})
		return
	}

	var epochSecs float64
	epochSecs += j.deferredPenaltySecs
	j.deferredPenaltySecs = 0
	firstPlacement := !j.everRan
	// A job continuously prioritized onto the device it last occupied
	// keeps its state hot; anything else replays the checkpoint — and a
	// crash forces the replay regardless, because the interrupted epoch
	// left the in-memory trainer dirty.
	resumed := j.needsRestore || (j.everRan && e.deviceLastJob[p.Device] != j.ID())
	if resumed {
		epochSecs += e.cfg.SwapBaseSecs + e.cfg.SwapSecsPerParam*j.job.Spec().ParamsM
		if e.cfg.Store != nil {
			// Real replay: the trainer is rebuilt from persisted bytes. Its
			// Restore drops the warmed flag, so TrainEpoch below re-pays the
			// warm-up internally — no explicit charge here.
			epochSecs += e.resumeDLT(j)
		} else {
			epochSecs += dlt.WarmupSeconds
		}
	}
	e.deviceLastJob[p.Device] = j.ID()
	_, trainSecs := j.job.TrainEpoch()
	epochSecs += trainSecs
	start := e.eng.Now()
	// Epoch watchdog (see the AQP side): preempt a runaway epoch at
	// slack × predicted cost, doubling per strike. The injector's draw
	// comes first so arming the watchdog never perturbs the fault
	// sequence; an earlier crash wins.
	watchAt := math.Inf(1)
	if e.cfg.WatchdogSlack > 0 {
		budget := e.cfg.WatchdogSlack * j.nextEpochSecsGuess() * math.Pow(2, float64(j.watchdogStrikes))
		if epochSecs > budget {
			watchAt = budget
		}
	}
	if after, crashed := e.cfg.Faults.EpochCrash(epochSecs); crashed && after <= watchAt {
		e.eng.Schedule(after, func() { e.crashEpoch(j, p.Device, after) })
		return
	}
	if !math.IsInf(watchAt, 1) {
		e.eng.Schedule(watchAt, func() { e.preemptEpoch(j, p.Device, watchAt) })
		return
	}
	e.eng.Schedule(epochSecs, func() { e.finishEpoch(j, p.Device, start, epochSecs, firstPlacement || resumed) })
}

// preemptEpoch handles the watchdog firing wastedSecs into a running
// epoch: results lost, device freed (it stays healthy — this is not a
// fault), job re-queued after the penalty with a forced rollback.
func (e *DLTExecutor) preemptEpoch(j *DLTJob, device int, wastedSecs float64) {
	e.gpus.Release(j.ID())
	delete(e.running, j.ID())
	e.roundRunning--
	e.met.runningJobs.Set(float64(len(e.running)))
	j.status = StatusPending
	j.needsRestore = true
	j.processingSecs += wastedSecs
	j.watchdogStrikes++
	e.overload.WatchdogPreemptions++
	e.met.watchdogPreempts.Inc()
	e.overload.WatchdogWastedSecs += wastedSecs
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceWatchdog, Job: j.ID(), Device: device,
			Detail: fmt.Sprintf("wasted=%.1fs strikes=%d", wastedSecs, j.watchdogStrikes)})
	}
	e.limbo++
	e.eng.Schedule(e.cfg.WatchdogPenaltySecs, func() {
		e.limbo--
		if j.status.Terminal() {
			return
		}
		e.enqueue(j)
		e.scheduleArbitrate()
	})
	e.scheduleArbitrate()
}

// resumeDLT replays the trainer's persisted state, returning any injected
// I/O delay. An unusable checkpoint falls back to a from-scratch restart
// off the pristine state.
func (e *DLTExecutor) resumeDLT(j *DLTJob) float64 {
	rollingBack := j.needsRestore
	data, _, err := e.cfg.Store.Load(j.ID())
	extra := e.cfg.Store.TakePenaltySecs()
	if err == nil {
		err = j.job.Restore(data)
		if err == nil {
			j.needsRestore = false
			if rollingBack {
				e.rec.Rollbacks++
				e.met.rollbacks.Inc()
			}
			e.met.resumes.Inc()
			e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceResume, Job: j.ID()})
			return extra
		}
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTransient) {
		if serr := e.scratchRestartDLT(j, err); serr != nil {
			e.storeErr = serr
		}
	} else {
		e.storeErr = fmt.Errorf("core: resume %s: %w", j.ID(), err)
	}
	return extra
}

// scratchRestartDLT rewinds the job to its pristine trainer state: with a
// deterministic accuracy curve, replaying from epoch zero reproduces the
// fault-free trajectory exactly.
func (e *DLTExecutor) scratchRestartDLT(j *DLTJob, cause error) error {
	if j.pristine == nil {
		return fmt.Errorf("core: restart %s: no pristine state: %w", j.ID(), cause)
	}
	if err := j.job.Restore(j.pristine); err != nil {
		return fmt.Errorf("core: restart %s: %w", j.ID(), err)
	}
	e.cfg.Store.Remove(j.ID())
	j.epochs = 0
	j.convergedAtEpoch = 0
	j.everRan = false
	j.needsRestore = false
	j.lastRelease = 0
	j.lastDevice = -1
	e.rec.ScratchRestarts++
	e.met.scratchRestarts.Inc()
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceRestart, Job: j.ID(),
		Detail: restartCause(cause)})
	return nil
}

// crashEpoch handles a device crash wastedSecs into a running epoch: the
// epoch's results are lost, the device goes down until repaired, and the
// job rejoins the queue after the crash-recovery delay with a forced
// rollback to its last valid checkpoint.
func (e *DLTExecutor) crashEpoch(j *DLTJob, device int, wastedSecs float64) {
	e.gpus.Release(j.ID())
	delete(e.running, j.ID())
	e.roundRunning--
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
	// The device's hot state is gone and the device itself leaves the
	// rotation until repaired.
	delete(e.deviceLastJob, device)
	e.gpus.SetDown(device, true)
	repair := e.cfg.Faults.RepairSecs()
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceCrash, Job: j.ID(), Device: device,
			Detail: fmt.Sprintf("wasted=%.1fs repair=%.0fs", wastedSecs, repair)})
	}
	e.eng.Schedule(repair, func() {
		e.gpus.SetDown(device, false)
		e.scheduleArbitrate()
	})
	e.limbo++
	e.eng.Schedule(e.cfg.CrashRecoverySecs, func() {
		e.limbo--
		if j.status.Terminal() {
			return
		}
		e.enqueue(j)
		e.scheduleArbitrate()
	})
	e.scheduleArbitrate()
}

func (e *DLTExecutor) deviceByID(id int) (cluster.GPU, bool) {
	for _, d := range e.gpus.Devices() {
		if d.ID == id {
			return d, true
		}
	}
	return cluster.GPU{}, false
}

func (e *DLTExecutor) finishEpoch(j *DLTJob, device int, start sim.Time, epochSecs float64, firstOnDevice bool) {
	e.gpus.Release(j.ID())
	delete(e.running, j.ID())
	e.roundRunning--
	e.met.runningJobs.Set(float64(len(e.running)))
	e.met.epochs.Inc()
	e.met.epochSecs.Observe(epochSecs)
	now := e.eng.Now()
	j.everRan = true
	j.lastRelease = now
	j.lastDevice = device
	j.epochs++
	j.processingSecs += epochSecs
	j.watchdogStrikes = 0 // completed within budget
	if j.crashPending {
		j.crashPending = false
		e.rec.Recovered++
		e.met.recovered.Inc()
		e.rec.RecoveryLatencySecs += (now - j.crashedSince).Seconds()
	}
	e.recordPlacement(j, device, start, now)

	e.ttr.RecordEpoch(j.ID(), device, epochSecs, j.job.StepsPerEpoch(), firstOnDevice)

	if j.crit.Kind == criteria.Convergence && j.convergedAtEpoch == 0 && j.job.Converged(j.crit.Threshold) {
		j.convergedAtEpoch = j.epochs
	}
	j.epochLog = append(j.epochLog, EpochObs{
		At:      now,
		Epoch:   j.epochs,
		TrueAcc: j.job.Accuracy(),
		EstAcc:  j.job.Accuracy(), // DLT evaluates directly; no proxy needed (§IV-B)
	})
	if e.cfg.Tracer.Enabled() {
		e.cfg.Tracer.Emit(TraceEvent{At: now, Kind: TraceEpochDone, Job: j.ID(),
			Detail: fmt.Sprintf("epoch=%d acc=%.3f", j.epochs, j.job.Accuracy())})
	}

	switch {
	case j.CriteriaMet():
		e.finishJob(j, StatusAttainedStop)
	case j.DeadlineExpired():
		e.finishJob(j, StatusExpired)
	default:
		j.status = StatusPending
		e.enqueue(j)
		if e.cfg.Store != nil {
			if data, err := j.job.Checkpoint(); err != nil {
				e.storeErr = fmt.Errorf("core: checkpoint %s: %w", j.ID(), err)
			} else if err := e.cfg.Store.Save(j.ID(), data); err != nil {
				j.deferredPenaltySecs += e.cfg.Store.TakePenaltySecs()
				if errors.Is(err, ErrTransient) {
					// The save failed for good: the previous checkpoint is
					// behind the in-memory bookkeeping, so replay from
					// scratch instead of desynchronizing the job.
					if serr := e.scratchRestartDLT(j, err); serr != nil {
						e.storeErr = serr
					}
				} else {
					e.storeErr = err
				}
			} else {
				j.deferredPenaltySecs += e.cfg.Store.TakePenaltySecs()
				e.met.checkpoints.Inc()
				e.cfg.Tracer.Emit(TraceEvent{At: now, Kind: TraceCheckpoint, Job: j.ID()})
			}
		}
	}
	e.scheduleArbitrate()
}

// recordPlacement extends the last Gantt rectangle when the job stayed on
// the same device with no gap, else opens a new one.
func (e *DLTExecutor) recordPlacement(j *DLTJob, device int, start, end sim.Time) {
	n := len(j.placements)
	if n > 0 && j.placements[n-1].Device == device && j.placements[n-1].End == start {
		j.placements[n-1].End = end
		return
	}
	j.placements = append(j.placements, Placement{Device: device, Start: start, End: end})
}

func (e *DLTExecutor) finishJob(j *DLTJob, status JobStatus) {
	if e.cfg.Store != nil {
		e.cfg.Store.Remove(j.ID())
	}
	// Every finishJob target was admitted (it reached the queue), so its
	// tenant's concurrent-job slot opens here.
	if e.cfg.Admission != nil {
		e.cfg.Admission.JobDone(j.tenant)
	}
	if j.crashPending {
		j.crashPending = false
		e.rec.RecoveryLatencySecs += (e.eng.Now() - j.crashedSince).Seconds()
	}
	e.cfg.Tracer.Emit(TraceEvent{At: e.eng.Now(), Kind: TraceStop, Job: j.ID(), Tenant: j.tenant, Detail: status.String()})
	j.status = status
	j.endTime = e.eng.Now()
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
		cfg := j.job.Config()
		spec := j.job.Spec()
		var epochSecs float64
		if j.epochs > 0 {
			epochSecs = j.processingSecs / float64(j.epochs)
		}
		e.repo.AddDLT(estimate.DLTRecord{
			ID:        j.ID(),
			Model:     cfg.Model,
			Family:    spec.Family,
			Dataset:   cfg.Dataset,
			ParamsM:   spec.ParamsM,
			BatchSize: cfg.BatchSize,
			Optimizer: cfg.Optimizer,
			LR:        cfg.LR,
			Epochs:    j.epochs,
			AccCurve:  j.job.AccuracyHistory(),
			PeakMemMB: j.job.PeakMemoryMB(),
			EpochSecs: epochSecs,
		})
	}
}

func (e *DLTExecutor) removePending(j *DLTJob) {
	for i, p := range e.pending {
		if p == j {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			e.met.pendingJobs.Set(float64(len(e.pending)))
			return
		}
	}
}
