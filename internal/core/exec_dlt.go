package core

import (
	"fmt"

	"rotary/internal/cluster"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
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
	ExecConfig
}

// DefaultDLTExecConfig mirrors the paper's 4 × 8 GB testbed.
func DefaultDLTExecConfig() DLTExecConfig {
	return DLTExecConfig{
		GPUs:             4,
		GPUMemMB:         8192,
		SwapBaseSecs:     3.0,
		SwapSecsPerParam: 0.05,
		ExecConfig:       ExecConfig{RecordHistory: true},
	}
}

// DLTExecutor drives a DLT workload through a scheduling policy over
// virtual time: one evaluation epoch per placement, TTR recording, the
// convergence delta check, deadline expiry, swap overheads for evicted
// jobs, and OOM detection when a placement's actual footprint exceeds the
// device (the failure mode TME's padding exists to prevent). The job
// lifecycle it shares with AQPExecutor lives in execCore.
type DLTExecutor struct {
	execCore[*DLTJob]
	gpus  *cluster.GPUCluster
	sched DLTScheduler
	ttr   *dlt.TTR
	// cfg supplies the model's own knobs; the shared ones are read through
	// execCore.lc, whose Tracer carries the process default.
	cfg DLTExecConfig

	// roundRunning counts the jobs still mid-epoch in the current
	// scheduling round. Algorithm 3 is round-based: every round rebuilds
	// the priority queue over all active jobs and assigns every device;
	// the next round starts when all placed jobs complete their epoch.
	roundRunning int
	// deviceLastJob tracks the last occupant of each device so a job that
	// is continuously prioritized onto the same device avoids the
	// checkpoint/restore/warm-up swap cost (§III-C's third advantage).
	deviceLastJob map[int]string
	// repairSecs is the repair delay of the crash being noted, for its trace.
	repairSecs float64
	// arbCtx is arbitration scratch (see execCore.arbPend).
	arbCtx DLTContext
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
	e := &DLTExecutor{
		gpus:          cluster.NewUniformGPUCluster(cfg.GPUs, cfg.GPUMemMB),
		sched:         sched,
		ttr:           dlt.NewTTR(),
		cfg:           cfg,
		deviceLastJob: make(map[int]string),
	}
	e.execCore = newExecCore[*DLTJob](e, eng, repo, "dlt", cfg.GPUs, cfg.ExecConfig)
	if cfg.AgingRounds > 0 {
		g := NewStarvationGuardDLT(sched, cfg.AgingRounds)
		e.sched, e.aging = g, &g.agingLedger
	}
	return e
}

// TTR exposes the training-time recorder (Table III reads its overhead).
func (e *DLTExecutor) TTR() *dlt.TTR { return e.ttr }

// OOMEvents reports placements that exceeded device memory.
func (e *DLTExecutor) OOMEvents() int { return e.ooms }

// Submit schedules a job's arrival.
func (e *DLTExecutor) Submit(j *DLTJob, at sim.Time) {
	e.register(j, at, false)
}

// arrived arms nothing: a DLT job's deadline is checked at its epoch
// boundaries only.
func (e *DLTExecutor) arrived(*DLTJob) {}

// lessValuable orders jobs by shedding preference: best-effort first,
// then lower attainment progress, then larger epoch bound (less urgent),
// then larger ID.
func (j *DLTJob) lessValuable(b *DLTJob) bool {
	if j.bestEffort != b.bestEffort {
		return j.bestEffort
	}
	pa, pb := j.AttainmentProgress(nil), b.AttainmentProgress(nil)
	if pa != pb {
		return pa < pb
	}
	if j.MaxEpochs() != b.MaxEpochs() {
		return j.MaxEpochs() > b.MaxEpochs()
	}
	return j.id > b.id
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

func (e *DLTExecutor) startEpoch(p DLTPlacement) {
	j := p.Job
	if !e.startable(j) {
		return
	}
	// The cluster admits the placement by its declared estimate; the
	// actual footprint check below models the OOM the estimate may miss.
	if err := e.gpus.Assign(j.ID(), p.Device, p.EstMemMB); err != nil {
		return
	}
	e.start(j, TraceEvent{Kind: TracePlace, Device: p.Device})
	e.roundRunning++

	actualMB := j.job.PeakMemoryMB()
	if dev, ok := e.deviceByID(p.Device); ok && actualMB > dev.MemMB {
		// Out of memory: the epoch aborts after the allocation failure;
		// the job pays a fraction of an epoch and returns to the queue.
		e.note(j, TraceEvent{Kind: TraceOOM, Device: p.Device}, actualMB)
		e.deviceLastJob[p.Device] = j.ID()
		waste := 0.1*float64(j.job.StepsPerEpoch())*j.job.StepSeconds() + dlt.WarmupSeconds
		e.eng.Schedule(waste, func() {
			e.free(j)
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
		if e.lc.Store != nil {
			// Real replay: the trainer is rebuilt from persisted bytes. Its
			// Restore drops the warmed flag, so TrainEpoch below re-pays the
			// warm-up internally — no explicit charge here.
			penalty, _, _ := e.restore(j, j.job.Restore)
			epochSecs += penalty
		} else {
			epochSecs += dlt.WarmupSeconds
		}
	}
	e.deviceLastJob[p.Device] = j.ID()
	_, trainSecs := j.job.TrainEpoch()
	epochSecs += trainSecs
	start := e.eng.Now()
	e.runEpoch(j, p.Device, epochSecs, func() { e.finishEpoch(j, p.Device, start, epochSecs, firstPlacement || resumed) })
}

// release frees the job's device and closes its slot in the round.
func (e *DLTExecutor) release(j *DLTJob) {
	e.gpus.Release(j.ID())
	e.roundRunning--
}

// crashed takes the device down: its hot state is gone and the device
// itself leaves the rotation until repaired.
func (e *DLTExecutor) crashed(_ *DLTJob, device int) {
	delete(e.deviceLastJob, device)
	e.gpus.SetDown(device, true)
	e.repairSecs = e.lc.Faults.RepairSecs()
	e.eng.Schedule(e.repairSecs, func() {
		e.gpus.SetDown(device, false)
		e.scheduleArbitrate()
	})
}

// detail formats the DLT side's trace details: an epoch's accuracy, a
// crash's wasted seconds and device repair delay, and the memory an OOM
// placement needed.
func (e *DLTExecutor) detail(j *DLTJob, kind TraceKind, x float64) string {
	switch kind {
	case TraceEpochDone:
		return fmt.Sprintf("epoch=%d acc=%.3f", j.epochs, j.job.Accuracy())
	case TraceCrash:
		return fmt.Sprintf("wasted=%.1fs repair=%.0fs", x, e.repairSecs)
	case TraceOOM:
		return fmt.Sprintf("need=%.0fMB", x)
	}
	return ""
}

// encode serializes the trainer's state.
func (e *DLTExecutor) encode(j *DLTJob) ([]byte, error) { return j.job.Checkpoint() }

// persist encodes the deferred trainer now and saves the bytes.
func (e *DLTExecutor) persist(j *DLTJob) error {
	data, err := e.encode(j)
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", j.ID(), err)
	}
	return e.lc.Store.Save(j.ID(), data)
}

// rewind restores the pristine trainer: with a deterministic accuracy
// curve, replaying from epoch zero reproduces the fault-free trajectory
// exactly.
func (e *DLTExecutor) rewind(j *DLTJob) error {
	if err := j.job.Restore(j.pristine); err != nil {
		return err
	}
	j.convergedAtEpoch = 0
	j.lastDevice = -1
	return nil
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
	e.epochDone(j, epochSecs)
	now := e.eng.Now()
	j.lastDevice = device
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
	e.note(j, TraceEvent{Kind: TraceEpochDone}, epochSecs)

	switch {
	case j.CriteriaMet():
		e.finishJob(j, StatusAttainedStop)
	case j.DeadlineExpired():
		e.finishJob(j, StatusExpired)
	default:
		e.deferJob(j)
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

// retire records the finished job's training curve in the history.
func (e *DLTExecutor) retire(j *DLTJob) {
	if !e.lc.RecordHistory {
		return
	}
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
