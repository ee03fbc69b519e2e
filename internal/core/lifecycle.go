package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"rotary/internal/admission"
	"rotary/internal/criteria"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/obs"
	"rotary/internal/sim"
)

// This file holds the half of Algorithm 1's loop that does not depend on
// the resource granted: arrival and admission, the wait queue and the
// running set, the watchdog and crash paths with their re-queue delay,
// checkpoint fallback, and terminal bookkeeping. AQPExecutor (threads and
// memory) and DLTExecutor (devices) embed one execCore each and supply
// the rest through resourceModel: how a round is arbitrated, how an
// epoch is priced, what a checkpoint holds, and what a finished job
// leaves in the history repository.

// jobCore is the bookkeeping every arbitrated job carries, whatever it is
// granted. AQPJob and DLTJob embed it.
type jobCore struct {
	id   string
	crit criteria.Criteria
	// tenant attributes the job for quota accounting, fair-share
	// arbitration, and per-tenant telemetry; empty means the default
	// tenant.
	tenant string

	arrival        sim.Time
	arrived        bool
	epochs         int
	processingSecs float64
	lastRelease    sim.Time
	everRan        bool
	status         JobStatus
	endTime        sim.Time

	// Fault-recovery state. pristine is the job's state as captured at
	// submission, the fallback when no usable checkpoint survives a
	// failure. needsRestore forces the next grant to replay persisted
	// state even at the release instant — a crash leaves the in-memory
	// state dirty (work of the interrupted epoch was consumed), so the
	// hot-state shortcut would resume from a state no completed epoch ever
	// observed. crashPending/crashedSince track the open recovery window
	// for the latency counter; deferredPenaltySecs carries checkpoint-I/O
	// backoff accrued at save time into the next epoch's virtual cost.
	pristine            []byte
	needsRestore        bool
	crashPending        bool
	crashedSince        sim.Time
	deferredPenaltySecs float64

	// Overload state. bestEffort marks a job the admission controller
	// admitted under the Degrade policy (deadline infeasible at arrival);
	// it runs normally but is first in line for shedding.
	// watchdogStrikes counts consecutive watchdog preemptions; each strike
	// doubles the next epoch's budget so a genuinely long epoch eventually
	// completes instead of livelocking against the watchdog. Strikes reset
	// when an epoch completes within budget.
	bestEffort      bool
	watchdogStrikes int

	// Admission refusal detail, set when the gate terminates the job with
	// StatusRejected: the typed cause (errors.Is-matchable against the
	// admission package's sentinels) and the quota layer's retry hint.
	rejectErr      error
	retryAfterSecs float64

	// seq is the job's registration number, the order TakeNoted hands
	// noted jobs over in; noted marks a job already in the noted queue.
	seq   int
	noted bool

	epochLog []EpochObs
}

func (b *jobCore) base() *jobCore { return b }

// ID returns the job identifier.
func (b *jobCore) ID() string { return b.id }

// Tenant reports the job's tenant attribution (empty = default tenant).
func (b *jobCore) Tenant() string { return b.tenant }

// Criteria returns the job's completion criterion.
func (b *jobCore) Criteria() criteria.Criteria { return b.crit }

// Status returns the job's current status.
func (b *jobCore) Status() JobStatus { return b.status }

// BestEffort reports whether the admission controller degraded the job to
// best-effort service (deadline infeasible at arrival).
func (b *jobCore) BestEffort() bool { return b.bestEffort }

// Arrival returns the job's arrival time; valid once arrived.
func (b *jobCore) Arrival() sim.Time { return b.arrival }

// EndTime returns the terminal time; valid once Terminal.
func (b *jobCore) EndTime() sim.Time { return b.endTime }

// Epochs reports completed epochs.
func (b *jobCore) Epochs() int { return b.epochs }

// ProcessingSecs reports cumulative virtual processing time.
func (b *jobCore) ProcessingSecs() float64 { return b.processingSecs }

// EpochLog returns the per-epoch observation log.
func (b *jobCore) EpochLog() []EpochObs { return b.epochLog }

// lifecycleJob is what the shared lifecycle needs of a job type beyond
// its jobCore.
type lifecycleJob[J any] interface {
	comparable
	base() *jobCore
	// nextEpochSecsGuess projects the job's next epoch cost: the
	// admission backlog's unit and the watchdog's budget.
	nextEpochSecsGuess() float64
	// lessValuable orders jobs by shedding preference.
	lessValuable(other J) bool
}

// resourceModel is the half of an executor that depends on what it
// grants. The executor itself implements it.
type resourceModel[J any] interface {
	// arbitrate runs the policy over the wait queue and starts the
	// granted epochs.
	arbitrate()
	// release returns the job's grant to the pool.
	release(j J)
	// encode serializes the job's checkpoint payload.
	encode(j J) ([]byte, error)
	// persist saves a deferred job's checkpoint to the store.
	persist(j J) error
	// rewind restores the job's pristine payload and clears the model's
	// own observations for a scratch restart.
	rewind(j J) error
	// arrived runs once an arrival has joined the wait queue.
	arrived(j J)
	// crashed runs the model's side of a crash on device, before the job
	// waits out its recovery delay.
	crashed(j J, device int)
	// detail formats a traced epoch done, crash, resume or OOM's Detail.
	detail(j J, kind TraceKind, x float64) string
	// retire is the model's terminal step once the job's status is final.
	retire(j J)
}

// ExecConfig holds the lifecycle knobs AQPExecConfig and DLTExecConfig
// share; both embed it.
type ExecConfig struct {
	// Store, when set, actually persists deferred jobs' state (an AQP
	// job's stream offsets + aggregate tables, a DLT job's trainer) and
	// restores it on resume — §VI's disk checkpointing with an optional
	// memory materialization tier. Resumes served from the memory tier
	// skip the virtual disk-replay cost.
	Store *CheckpointStore
	// Tracer, when set, records the arbitration timeline. Nil adopts the
	// process default tracer if one was installed (SetDefaultTracer).
	Tracer *Tracer
	// Obs selects the metrics registry the executor's counters live in.
	// Nil uses the process-wide obs.Default() — instrumentation is always
	// on; a private registry isolates a run (replay tests do this).
	Obs *obs.Registry
	// Faults, when set, deals deterministic worker or device crashes into
	// running epochs (checkpoint I/O faults are dealt by arming the Store
	// with the same injector). Fault injection requires a Store: recovery
	// replays persisted state.
	Faults *faults.Injector
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
	// AgingRounds, when > 0, wraps the scheduler in a starvation guard: a
	// pending job passed over for more than AgingRounds consecutive
	// arbitration rounds is forced a minimal grant. Zero leaves the policy
	// unwrapped.
	AgingRounds int
	// RecordHistory offers every terminal job to the repository, expired
	// ones included, so later workloads estimate from them; the
	// repository keeps only the records a similarity search can reach.
	RecordHistory bool
}

// crashRecoverySecs is the virtual time between a worker or device crash
// and the job rejoining the pending queue (failure detection + restart).
// The crashed device itself stays down for the injector's repair delay.
const crashRecoverySecs = 2

// watchdogPenaltySecs is the virtual delay before a job the epoch
// watchdog preempted rejoins the queue.
const watchdogPenaltySecs = 5

// execCore is the shared job lifecycle of one executor.
type execCore[J lifecycleJob[J]] struct {
	// lc is the executor's ExecConfig with the process default tracer
	// filled in; the lifecycle and both models read the shared knobs here.
	lc    ExecConfig
	model resourceModel[J]
	eng   *sim.Engine
	repo  *estimate.Repository
	met   *execMetrics
	// slots is the pool's capacity in grant units (threads or devices):
	// admission spreads the backlog over it.
	slots int

	jobs    []J
	pending []J
	running map[string]J
	// tenantPending counts the wait queue per tenant (admission's
	// MaxPending input); enqueue and removePending, the queue's only
	// writers, keep it.
	tenantPending map[string]int
	// registered counts registrations: the next job's seq.
	registered int
	// noted queues each job note booked a transition for since the last
	// TakeNoted, once.
	noted []J
	// limbo counts jobs in neither queue: preempted or crashed, waiting
	// out a penalty/recovery delay before re-enqueueing. Admission counts
	// them — they still occupy a slot of the bounded active set.
	limbo int

	arbPending    bool
	terminalCount int
	storeErr      error
	// The ledgers note keeps (see note.go).
	rec      RecoveryStats
	overload OverloadStats
	ooms     int
	// aging is the starvation guard's ledger when AgingRounds wraps the
	// policy in one (nil otherwise).
	aging *agingLedger

	// Arbitration scratch, reused across rounds so the per-epoch control
	// plane stays allocation-free: the policy's context and its
	// Pending/Running slices are valid only for the duration of one call.
	arbPend    []J
	arbRunning []J

	// ownsEngine marks an executor with a private engine (it may Stop the
	// engine when its workload completes); onDone notifies a composing
	// driver (the unified executor) instead.
	ownsEngine bool
	onDone     func()
}

// newExecCore applies the shared defaults: a fresh repository and the
// process default tracer. sub names the substrate in metrics ("aqp",
// "dlt").
func newExecCore[J lifecycleJob[J]](model resourceModel[J], eng *sim.Engine, repo *estimate.Repository,
	sub string, slots int, lc ExecConfig) execCore[J] {
	if repo == nil {
		repo = estimate.NewRepository()
	}
	if lc.Tracer == nil {
		lc.Tracer = defaultTracer
	}
	return execCore[J]{
		lc:            lc,
		model:         model,
		eng:           eng,
		repo:          repo,
		met:           newExecMetrics(lc.Obs, sub),
		slots:         slots,
		running:       make(map[string]J),
		tenantPending: make(map[string]int),
	}
}

// Engine exposes the virtual clock (tests and metric snapshots use it).
func (c *execCore[J]) Engine() *sim.Engine { return c.eng }

// Tracer exposes the configured tracer (nil when tracing is disabled);
// the serving mode's trace-tail op reads it.
func (c *execCore[J]) Tracer() *Tracer { return c.lc.Tracer }

// Jobs returns every submitted job.
func (c *execCore[J]) Jobs() []J { return c.jobs }

// Recovery reports the executor's fault-recovery counters.
func (c *execCore[J]) Recovery() RecoveryStats { return c.rec }

// Overload reports the executor's overload-protection counters.
func (c *execCore[J]) Overload() OverloadStats {
	o := c.overload
	if c.aging != nil {
		o.ForcedGrants = c.aging.forced
	}
	return o
}

// Admission exposes the configured admission controller (nil when
// admission is disabled).
func (c *execCore[J]) Admission() *admission.Controller { return c.lc.Admission }

// Validate checks the configuration invariants Run enforces, for drivers
// (the serving mode, the unified executor) that advance the engine
// themselves instead of calling Run.
func (c *execCore[J]) Validate() error {
	kind := strings.ToUpper(c.met.sub)
	if c.lc.Faults.Enabled() && c.lc.Store == nil {
		return fmt.Errorf("core: %s fault injection requires a CheckpointStore (recovery replays persisted state)", kind)
	}
	if c.lc.WatchdogSlack > 0 && c.lc.Store == nil {
		return fmt.Errorf("core: %s epoch watchdog requires a CheckpointStore (preemption rolls back to persisted state)", kind)
	}
	return nil
}

// Run drives the simulation until every submitted job is terminal (or no
// events remain, which means the workload deadlocked — reported as an
// error).
func (c *execCore[J]) Run() error {
	if err := c.Validate(); err != nil {
		return err
	}
	c.eng.Run()
	return c.drainErr()
}

// drainErr reports what a drained engine left wrong: a fatal store error,
// else jobs that never terminated.
func (c *execCore[J]) drainErr() error {
	if c.storeErr != nil {
		return c.storeErr
	}
	if c.terminalCount != len(c.jobs) {
		return fmt.Errorf("core: %d of %d %s jobs did not terminate",
			len(c.jobs)-c.terminalCount, len(c.jobs), strings.ToUpper(c.met.sub))
	}
	return nil
}

// register is the shared arrival path: capture the pristine state, then
// at the arrival instant run the admission gate (a recovered job passed
// it in a previous daemon incarnation) and join the wait queue.
func (c *execCore[J]) register(j J, at sim.Time, recovered bool) {
	b := j.base()
	// Capture the pristine state before any processing: the restart-from-
	// scratch fallback when no usable checkpoint survives a failure.
	if c.lc.Store != nil && b.pristine == nil {
		if data, err := c.model.encode(j); err != nil {
			c.storeErr = fmt.Errorf("core: pristine checkpoint %s: %w", b.id, err)
		} else {
			b.pristine = data
		}
	}
	b.seq = c.registered
	c.registered++
	c.jobs = append(c.jobs, j)
	c.eng.ScheduleAt(at, func() {
		b.arrival = c.eng.Now()
		b.arrived = true
		b.status = StatusPending
		ev := TraceEvent{Kind: TraceArrive}
		if recovered {
			// Reattach to the persisted checkpoint at the first grant. With
			// no store the fresh in-memory state is all there is, and the
			// job simply replays from the beginning.
			if c.lc.Store != nil {
				b.needsRestore = true
			}
			// Restore the tenant's concurrent-job slot so the cap stays
			// closed.
			if c.lc.Admission != nil {
				c.lc.Admission.AdoptRecovered(b.tenant)
			}
			ev.Detail = reattachedDetail
		} else if c.lc.Admission != nil && !c.admit(j) {
			return
		}
		c.enqueue(j)
		c.note(j, ev, 0)
		c.model.arrived(j)
		c.scheduleArbitrate()
	})
}

// admit runs the admission decision for an arriving job, reporting
// whether the job entered the wait queue. Refused jobs (and shed victims)
// terminate immediately with StatusRejected/StatusShed, recording no
// history: they never produced a curve worth learning from. Its inputs
// cost O(1) at any queue depth: the tenant's queue count is kept, and the
// backlog estimate is summed only when the slack check reads it.
func (c *execCore[J]) admit(j J) bool {
	b := j.base()
	depth := len(c.pending) + len(c.running) + c.limbo
	remaining := math.Inf(1)
	if secs, ok := b.crit.Deadline.DeadlineSeconds(); ok {
		remaining = secs
	}
	req := admission.Request{
		ID:            b.id,
		QueueDepth:    depth,
		RemainingSecs: remaining,
		Tenant:        b.tenant,
		Now:           c.eng.Now().Seconds(),
		TenantPending: c.tenantPending[b.tenant],
	}
	if c.lc.Admission.ChecksSlack(remaining) {
		req.EstCompletionSecs = c.estCompletionSecs(j)
	}
	dec := c.lc.Admission.Decide(req)
	switch dec.Verdict {
	case admission.DegradeBestEffort:
		b.bestEffort = true
		return true
	case admission.RejectJob:
		b.rejectErr = dec.Err
		b.retryAfterSecs = dec.RetryAfterSecs
		c.terminate(j, StatusRejected, TraceEvent{Kind: TraceReject, Detail: dec.Reason})
		return false
	case admission.ShedVictim:
		v, ok := c.shedVictim(j)
		if !ok {
			c.lc.Admission.ResolveShed(req, false)
			b.rejectErr = admission.ShedRefusalErr(b.id, depth, c.lc.Admission.Config().MaxQueueDepth)
			c.terminate(j, StatusRejected, TraceEvent{Kind: TraceReject, Detail: "queue-full no-victim"})
			return false
		}
		c.lc.Admission.ResolveShed(req, true)
		c.removePending(v)
		c.terminate(v, StatusShed, TraceEvent{Kind: TraceShed, Detail: b.id})
		return true
	default:
		return true
	}
}

// estCompletionSecs estimates an arrival's queueing delay plus first
// service under the current load: the queued and running jobs' next-epoch
// costs spread over the whole pool, plus the arrival's own first epoch.
// Running jobs sum in id order: float addition is not associative, and
// map order would let a verdict at the deadline's edge vary between runs.
// The sum walks the active set, so admit calls it only when the
// controller's slack check will read it.
func (c *execCore[J]) estCompletionSecs(j J) float64 {
	var backlog float64
	for _, p := range c.pending {
		backlog += p.nextEpochSecsGuess()
	}
	for _, r := range c.runningJobs() {
		backlog += r.nextEpochSecsGuess()
	}
	return backlog/float64(c.slots) + j.nextEpochSecsGuess()
}

// shedVictim picks the queued job with strictly lower value than the
// arrival (see the job types' lessValuable). It reports false when the
// arrival itself is the cheapest job in sight — evicting an equal-value
// job would just churn the queue.
func (c *execCore[J]) shedVictim(arrival J) (J, bool) {
	var victim J
	found := false
	for _, p := range c.pending {
		if !found || p.lessValuable(victim) {
			victim, found = p, true
		}
	}
	return victim, found && victim.lessValuable(arrival)
}

// finishJob stops an admitted job (every finishJob target reached the
// queue) and hands it to the model's terminal step.
func (c *execCore[J]) finishJob(j J, status JobStatus) {
	c.terminate(j, status, TraceEvent{Kind: TraceStop})
	c.model.retire(j)
}

// terminate records a terminal status: the job's checkpoint goes, the
// tenant slot of an admitted job opens, and ev — the Stop, Reject or Shed
// that ended it — is noted. When the workload is complete it drops
// leftover watchdog timers so the clock reflects the real makespan (or
// tells the composing driver).
func (c *execCore[J]) terminate(j J, status JobStatus, ev TraceEvent) {
	b := j.base()
	if c.lc.Store != nil {
		_ = c.lc.Store.Delete(b.id)
	}
	// A refused arrival never held a tenant slot.
	if c.lc.Admission != nil && ev.Kind != TraceReject {
		c.lc.Admission.JobDone(b.tenant)
	}
	b.status = status
	b.endTime = c.eng.Now()
	c.note(j, ev, 0)
	c.terminalCount++
	if c.terminalCount == len(c.jobs) {
		if c.ownsEngine {
			c.eng.Stop()
		} else if c.onDone != nil {
			c.onDone()
		}
	}
}

// enqueue appends to the wait queue, tracking its high-water mark and
// the tenant's queue count.
func (c *execCore[J]) enqueue(j J) {
	c.pending = append(c.pending, j)
	c.tenantPending[j.base().tenant]++
	if d := len(c.pending); d > c.overload.MaxPendingDepth {
		c.overload.MaxPendingDepth = d
	}
	c.met.pendingJobs.Set(float64(len(c.pending)))
}

// removePending takes a job out of the wait queue, if it is there.
func (c *execCore[J]) removePending(j J) {
	for i, p := range c.pending {
		if p == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			if t := j.base().tenant; c.tenantPending[t] > 1 {
				c.tenantPending[t]--
			} else {
				delete(c.tenantPending, t)
			}
			c.met.pendingJobs.Set(float64(len(c.pending)))
			return
		}
	}
}

// scheduleArbitrate coalesces all same-instant events (arrivals, epoch
// completions) into one arbitration decision, so the policy sees the
// complete queue state of the instant — not a prefix of it.
func (c *execCore[J]) scheduleArbitrate() {
	if c.arbPending {
		return
	}
	c.arbPending = true
	c.eng.Schedule(0, func() {
		c.arbPending = false
		c.model.arbitrate()
	})
}

// runningJobs presents the running set sorted by job ID: map iteration
// order is randomized per run, and policies that read ctx.Running must
// see a deterministic queue state (the bit-identical replay guarantees
// of the chaos suites depend on it).
func (c *execCore[J]) runningJobs() []J {
	out := c.arbRunning[:0]
	for _, j := range c.running {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].base().id < out[b].base().id })
	c.arbRunning = out
	return out
}

// startable reports whether a granted job may start an epoch: it is
// neither terminal nor already running.
func (c *execCore[J]) startable(j J) bool {
	b := j.base()
	_, running := c.running[b.id]
	return !b.status.Terminal() && !running
}

// start moves a job whose grant the pool accepted from the wait queue
// into the running set and notes the grant (ev: Grant or Place).
func (c *execCore[J]) start(j J, ev TraceEvent) {
	b := j.base()
	c.removePending(j)
	b.status = StatusRunning
	c.running[b.id] = j
	c.met.runningJobs.Set(float64(len(c.running)))
	c.note(j, ev, 0)
}

// free returns a job's grant and takes it out of the running set.
func (c *execCore[J]) free(j J) {
	c.model.release(j)
	delete(c.running, j.base().id)
	c.met.runningJobs.Set(float64(len(c.running)))
}

// runEpoch schedules the event that ends an epoch of epochSecs on device
// (0 where grants are not devices): a worker crash dealt by the fault
// injector, a watchdog preemption, or done. The watchdog cuts a runaway
// epoch (the cost model gone degenerate, a stuck data source,
// pathological pressure) short once it exceeds slack × the job's
// predicted epoch cost; strikes double the budget so a genuinely long
// epoch eventually completes. The injector's draw comes first so arming
// the watchdog never perturbs the fault sequence; an earlier crash wins
// over a later watchdog preemption.
func (c *execCore[J]) runEpoch(j J, device int, epochSecs float64, done func()) {
	watchAt := math.Inf(1)
	if c.lc.WatchdogSlack > 0 {
		budget := c.lc.WatchdogSlack * j.nextEpochSecsGuess() * math.Pow(2, float64(j.base().watchdogStrikes))
		if epochSecs > budget {
			watchAt = budget
		}
	}
	if after, crashed := c.lc.Faults.EpochCrash(epochSecs); crashed && after <= watchAt {
		c.eng.Schedule(after, func() { c.interrupt(j, TraceEvent{Kind: TraceCrash, Device: device}, after) })
		return
	}
	if !math.IsInf(watchAt, 1) {
		c.eng.Schedule(watchAt, func() { c.interrupt(j, TraceEvent{Kind: TraceWatchdog, Device: device}, watchAt) })
		return
	}
	c.eng.Schedule(epochSecs, done)
}

// interrupt ends a running epoch wastedSecs in, as ev says: a Crash, or
// a Watchdog preemption (the device stays healthy — this is not a fault).
// The epoch's in-flight results are lost, resources free immediately, and
// the job rejoins the queue after the crash-recovery or penalty delay
// with a forced rollback to its last valid checkpoint. The rollback goes
// through Store.Load even when no work survived: read faults and corrupt
// frames must still fire.
func (c *execCore[J]) interrupt(j J, ev TraceEvent, wastedSecs float64) {
	c.free(j)
	b := j.base()
	b.status = StatusPending
	b.needsRestore = true
	b.processingSecs += wastedSecs
	delay := float64(watchdogPenaltySecs)
	if ev.Kind == TraceCrash {
		c.model.crashed(j, ev.Device)
		delay = crashRecoverySecs
	} else {
		b.watchdogStrikes++
	}
	c.note(j, ev, wastedSecs)
	c.requeueAfter(j, delay)
}

// requeueAfter parks a job in limbo for delay virtual seconds, then
// re-enqueues it — unless the deadline watchdog expired it meanwhile.
func (c *execCore[J]) requeueAfter(j J, delay float64) {
	c.limbo++
	c.eng.Schedule(delay, func() {
		c.limbo--
		if j.base().status.Terminal() {
			return
		}
		c.enqueue(j)
		c.scheduleArbitrate()
	})
	c.scheduleArbitrate()
}

// epochDone frees a job whose epoch of epochSecs completed and books it
// on the job; the executor notes the transition once it has observed the
// epoch.
func (c *execCore[J]) epochDone(j J, epochSecs float64) {
	c.free(j)
	b := j.base()
	b.everRan = true
	b.lastRelease = c.eng.Now()
	b.epochs++
	b.processingSecs += epochSecs
	b.watchdogStrikes = 0 // completed within budget
}

// deferJob returns a job that met no stop rule to the wait queue and
// persists its state. If it is re-granted this very instant the
// checkpoint is simply never replayed.
func (c *execCore[J]) deferJob(j J) {
	b := j.base()
	b.status = StatusPending
	c.enqueue(j)
	if c.lc.Store == nil {
		return
	}
	err := c.model.persist(j)
	b.deferredPenaltySecs += c.lc.Store.TakePenaltySecs()
	if errors.Is(err, ErrTransient) {
		// The save failed for good, but any previously persisted
		// checkpoint is now behind the in-memory bookkeeping, so rolling
		// back to it would desynchronize the job. Replay from scratch
		// instead — deterministic data makes that exact, just slower.
		if serr := c.scratchRestart(j, err); serr != nil {
			c.storeErr = serr
		}
	} else if err != nil {
		c.storeErr = err
	} else {
		c.note(j, TraceEvent{Kind: TraceCheckpoint}, 0)
	}
}

// restore replays the job's persisted checkpoint through apply, returning
// the store's injected I/O delay, whether the memory tier served the
// bytes, and whether the replay succeeded (noted as a resume, and a
// rollback when a crash or preemption forced it). An unusable checkpoint
// (missing, corrupt, or persistently failing I/O) falls back to a
// from-scratch restart off the pristine state; any other failure is fatal
// to the run.
func (c *execCore[J]) restore(j J, apply func([]byte) error) (penaltySecs float64, fromMemory, ok bool) {
	b := j.base()
	data, fromMemory, err := c.lc.Store.Load(b.id)
	penaltySecs = c.lc.Store.TakePenaltySecs()
	if err == nil {
		if err = apply(data); err == nil {
			served := 0.0
			if fromMemory {
				served = 1
			}
			c.note(j, TraceEvent{Kind: TraceResume}, served)
			b.needsRestore = false
			return penaltySecs, fromMemory, true
		}
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTransient) {
		if serr := c.scratchRestart(j, err); serr != nil {
			c.storeErr = serr
		}
	} else {
		c.storeErr = fmt.Errorf("core: resume %s: %w", b.id, err)
	}
	return penaltySecs, fromMemory, false
}

// scratchRestart rewinds the job to its pristine state: the persisted
// checkpoint is unusable, so the job replays from the beginning — which,
// with deterministic data, reproduces the fault-free observation sequence
// exactly. processingSecs is deliberately kept — the wasted time was
// really spent and the metrics must see it.
func (c *execCore[J]) scratchRestart(j J, cause error) error {
	b := j.base()
	if b.pristine == nil {
		return fmt.Errorf("core: restart %s: no pristine state: %w", b.id, cause)
	}
	// Remove first: a frame staged as an encoder reads the state the
	// rewind replaces.
	_ = c.lc.Store.Delete(b.id)
	if err := c.model.rewind(j); err != nil {
		return fmt.Errorf("core: restart %s: %w", b.id, err)
	}
	b.epochs = 0
	b.everRan = false
	b.needsRestore = false
	b.lastRelease = 0
	c.note(j, TraceEvent{Kind: TraceRestart, Detail: restartCause(cause)}, 0)
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
