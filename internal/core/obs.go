package core

import (
	"fmt"

	"rotary/internal/obs"
)

// defaultTracer, when set, is adopted by executors constructed without an
// explicit Tracer — the hook commands use to stream traces out of deep
// call stacks (rotary-bench's experiment runners) without threading a
// tracer through every construction site. Set it before building
// executors; reads are unsynchronized by design (the goroutine-creation
// happens-before edge covers the CLI usage).
var defaultTracer *Tracer

// SetDefaultTracer installs the fallback tracer adopted by executors
// whose config leaves Tracer nil (nil uninstalls). Call before
// constructing executors.
func SetDefaultTracer(t *Tracer) { defaultTracer = t }

// epochSecsBuckets grade virtual epoch durations from sub-second epochs
// to pathological multi-minute ones (watchdog territory).
var epochSecsBuckets = []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600}

// execMetrics holds one executor substrate's pre-resolved obs handles
// (sub is "aqp" or "dlt"). Handles are looked up once at construction;
// the hot path touches only atomics. Executors sharing a registry share
// handles and accumulate, like any process-wide metrics endpoint. All
// values here derive from virtual time and seed-stable inputs, so they
// render deterministically.
type execMetrics struct {
	reg *obs.Registry
	sub string

	// count counts noted transitions by kind (nil counts nothing: stop,
	// and the kinds the substrate never notes).
	count       [TraceDetach + 1]*obs.Counter
	epochSecs   *obs.Histogram
	rollbacks   *obs.Counter
	recovered   *obs.Counter
	reattached  *obs.Counter
	degraded    *obs.Counter
	stops       *obs.Counter
	pendingJobs *obs.Gauge
	runningJobs *obs.Gauge
	ckptEncode  *obs.Histogram // wall, aqp only: Checkpoint() before the store sees a byte
	outcomes    [StatusShed + 1]*obs.Counter
}

func newExecMetrics(reg *obs.Registry, sub string) *execMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	p := "rotary_" + sub + "_"
	m := &execMetrics{
		reg:         reg,
		sub:         sub,
		epochSecs:   reg.Histogram(p+"epoch_secs", "completed-epoch duration in virtual seconds", epochSecsBuckets),
		rollbacks:   reg.Counter(p+"rollbacks_total", "forced rollbacks to a checkpoint after a crash or preemption"),
		recovered:   reg.Counter(p+"recovered_total", "jobs that completed an epoch after a crash"),
		reattached:  reg.Counter(p+"reattached_total", "journal-recovered jobs re-registered after a daemon restart"),
		degraded:    reg.Counter(p+"degraded_total", "arrivals admitted as best-effort"),
		stops:       reg.Counter(p+"stops_total", "jobs reaching a terminal status (any outcome)"),
		pendingJobs: reg.Gauge(p+"pending_jobs", "wait-queue depth"),
		runningJobs: reg.Gauge(p+"running_jobs", "jobs mid-epoch"),
	}
	m.count[TraceArrive] = reg.Counter(p+"arrivals_total", "job arrivals fired (counted before the admission gate)")
	m.count[TraceEpochDone] = reg.Counter(p+"epochs_total", "epochs completed")
	m.count[TraceCheckpoint] = reg.Counter(p+"checkpoints_total", "deferred-job checkpoints persisted")
	m.count[TraceResume] = reg.Counter(p+"resumes_total", "checkpoint resumes replayed")
	m.count[TraceCrash] = reg.Counter(p+"crashes_total", "injected worker/device crashes")
	m.count[TraceDetach] = reg.Counter(p+"detached_total", "jobs detached for checkpoint-carried migration to another shard")
	m.count[TraceRestart] = reg.Counter(p+"scratch_restarts_total", "from-scratch restarts after an unusable checkpoint")
	m.count[TraceWatchdog] = reg.Counter(p+"watchdog_preemptions_total", "epochs preempted by the watchdog")
	m.count[TraceReject] = reg.Counter(p+"rejected_total", "arrivals refused at the admission gate")
	m.count[TraceShed] = reg.Counter(p+"shed_total", "queued jobs evicted for a higher-value arrival")
	if sub == "dlt" {
		m.count[TracePlace] = reg.Counter(p+"placements_total", "device placements applied")
		m.count[TraceOOM] = reg.Counter(p+"oom_total", "placements aborted by device OOM")
	} else {
		m.count[TraceGrant] = reg.Counter(p+"grants_total", "thread grants applied")
		m.ckptEncode = reg.WallHistogram("rotary_checkpoint_encode_seconds",
			"wall-clock time encoding a job's state for a checkpoint (disk time is rotary_ckpt_write_seconds)", ckptLatencyBuckets)
	}
	return m
}

// outcome returns a terminal status's counter in the per-status breakdown
// family, registered at the status's first occurrence (a status no job
// reached never renders).
func (m *execMetrics) outcome(status JobStatus) *obs.Counter {
	if m.outcomes[status] == nil {
		m.outcomes[status] = m.reg.Counter(fmt.Sprintf("rotary_%s_job_outcomes_total{status=%q}", m.sub, status),
			"terminal job outcomes by status")
	}
	return m.outcomes[status]
}

// ckptEvent is a CheckpointStore event that CheckpointStore.book counts.
type ckptEvent int

const (
	ckptAccepted   ckptEvent = iota // a save or import that returned nil
	ckptDiskWrite                   // a frame reached disk
	ckptCoalesced                   // a staged frame superseded or deleted before its flush
	ckptEncoded                     // a lazy save's encoder ran
	ckptFlushError                  // a staged frame a flush failed to write
	ckptMemHit                      // a load served from the memory tier
	ckptDiskHit                     // a load replayed from disk or the stage
	ckptCorrupt                     // a frame that failed validation
	ckptRetry                       // an I/O attempt retried
	ckptTransient                   // an operation that exhausted its retries
	ckptSlowIO                      // an injected slow-storage event
	ckptSwept                       // stale files removed at open
	ckptObsMoved                    // SetObs moved the counters to a new registry (counts nothing)
)

// storeMetrics holds a CheckpointStore's obs handles. Counters and the
// frame-size histogram are virtual-time deterministic; the latency
// histograms measure real I/O and are wall-class.
type storeMetrics struct {
	count        [ckptSwept + 1]*obs.Counter // by event
	stagedBytes  *obs.Gauge
	frameBytes   *obs.Histogram
	writeLatency *obs.Histogram // wall
	readLatency  *obs.Histogram // wall
}

var (
	ckptBytesBuckets   = []float64{256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
	ckptLatencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
)

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	const p = "rotary_ckpt_"
	m := &storeMetrics{
		stagedBytes:  reg.Gauge(p+"staged_bytes", "encoded payload bytes staged for the next flush (a frame whose encoder has not run counts 0)"),
		frameBytes:   reg.Histogram(p+"frame_bytes", "on-disk checkpoint frame size in bytes", ckptBytesBuckets),
		writeLatency: reg.WallHistogram(p+"write_seconds", "wall-clock disk write latency", ckptLatencyBuckets),
		readLatency:  reg.WallHistogram(p+"read_seconds", "wall-clock disk read latency", ckptLatencyBuckets),
	}
	m.count[ckptAccepted] = reg.Counter(p+"writes_total", "checkpoint saves and imports accepted")
	m.count[ckptDiskWrite] = reg.Counter(p+"disk_writes_total", "frames written to disk")
	m.count[ckptCoalesced] = reg.Counter(p+"coalesced_total", "staged saves superseded or deleted before they were flushed")
	m.count[ckptFlushError] = reg.Counter(p+"flush_errors_total", "staged frames a flush failed to write (kept staged for the next flush)")
	m.count[ckptEncoded] = reg.Counter(p+"encodes_total", "lazy saves whose encoder ran, inside the save or forced by a flush, load or export (writes_total minus this is saves that cost no encode)")
	m.count[ckptMemHit] = reg.Counter(p+"mem_hits_total", "loads served from the memory tier")
	m.count[ckptDiskHit] = reg.Counter(p+"disk_hits_total", "loads replayed from disk")
	m.count[ckptCorrupt] = reg.Counter(p+"corrupt_detected_total", "loads rejected by frame validation")
	m.count[ckptRetry] = reg.Counter(p+"retries_total", "transient I/O attempts retried")
	m.count[ckptTransient] = reg.Counter(p+"transient_failures_total", "operations that exhausted their retries")
	m.count[ckptSlowIO] = reg.Counter(p+"slow_ios_total", "injected slow-storage events")
	m.count[ckptSwept] = reg.Counter(p+"swept_total", "stale checkpoint files removed at startup")
	return m
}
