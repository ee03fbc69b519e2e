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

	arrivals         *obs.Counter
	grants           *obs.Counter // thread grants (aqp) / device placements (dlt)
	epochs           *obs.Counter
	epochSecs        *obs.Histogram
	checkpoints      *obs.Counter
	resumes          *obs.Counter
	rollbacks        *obs.Counter
	crashes          *obs.Counter
	recovered        *obs.Counter
	reattached       *obs.Counter
	detached         *obs.Counter
	scratchRestarts  *obs.Counter
	watchdogPreempts *obs.Counter
	rejected         *obs.Counter
	shed             *obs.Counter
	degraded         *obs.Counter
	stops            *obs.Counter
	ooms             *obs.Counter // dlt only
	pendingJobs      *obs.Gauge
	runningJobs      *obs.Gauge
	ckptEncode       *obs.Histogram // wall, aqp only: Checkpoint() before the store sees a byte
}

func newExecMetrics(reg *obs.Registry, sub string) *execMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	p := "rotary_" + sub + "_"
	m := &execMetrics{
		reg:              reg,
		sub:              sub,
		arrivals:         reg.Counter(p+"arrivals_total", "job arrivals fired (counted before the admission gate)"),
		epochs:           reg.Counter(p+"epochs_total", "epochs completed"),
		epochSecs:        reg.Histogram(p+"epoch_secs", "completed-epoch duration in virtual seconds", epochSecsBuckets),
		checkpoints:      reg.Counter(p+"checkpoints_total", "deferred-job checkpoints persisted"),
		resumes:          reg.Counter(p+"resumes_total", "checkpoint resumes replayed"),
		rollbacks:        reg.Counter(p+"rollbacks_total", "forced rollbacks to a checkpoint after a crash or preemption"),
		crashes:          reg.Counter(p+"crashes_total", "injected worker/device crashes"),
		recovered:        reg.Counter(p+"recovered_total", "jobs that completed an epoch after a crash"),
		reattached:       reg.Counter(p+"reattached_total", "journal-recovered jobs re-registered after a daemon restart"),
		detached:         reg.Counter(p+"detached_total", "jobs detached for checkpoint-carried migration to another shard"),
		scratchRestarts:  reg.Counter(p+"scratch_restarts_total", "from-scratch restarts after an unusable checkpoint"),
		watchdogPreempts: reg.Counter(p+"watchdog_preemptions_total", "epochs preempted by the watchdog"),
		rejected:         reg.Counter(p+"rejected_total", "arrivals refused at the admission gate"),
		shed:             reg.Counter(p+"shed_total", "queued jobs evicted for a higher-value arrival"),
		degraded:         reg.Counter(p+"degraded_total", "arrivals admitted as best-effort"),
		stops:            reg.Counter(p+"stops_total", "jobs reaching a terminal status (any outcome)"),
		pendingJobs:      reg.Gauge(p+"pending_jobs", "wait-queue depth"),
		runningJobs:      reg.Gauge(p+"running_jobs", "jobs mid-epoch"),
	}
	if sub == "dlt" {
		m.grants = reg.Counter(p+"placements_total", "device placements applied")
		m.ooms = reg.Counter(p+"oom_total", "placements aborted by device OOM")
	} else {
		m.grants = reg.Counter(p+"grants_total", "thread grants applied")
		m.ckptEncode = reg.WallHistogram("rotary_checkpoint_encode_seconds",
			"wall-clock time encoding a job's state for a checkpoint (disk time is rotary_ckpt_write_seconds)", ckptLatencyBuckets)
	}
	return m
}

// outcome counts a terminal status in the per-status breakdown family.
// The registry lookup is amortized over a job's whole lifetime (one call
// at termination), not per-epoch.
func (m *execMetrics) outcome(status JobStatus) {
	m.stops.Inc()
	if m.reg != nil {
		m.reg.Counter(fmt.Sprintf("rotary_%s_job_outcomes_total{status=%q}", m.sub, status),
			"terminal job outcomes by status").Inc()
	}
}

// storeMetrics holds a CheckpointStore's obs handles. Counters and the
// frame-size histogram are virtual-time deterministic; the latency
// histograms measure real I/O and are wall-class.
type storeMetrics struct {
	writes       *obs.Counter
	diskWrites   *obs.Counter
	coalesced    *obs.Counter
	encodes      *obs.Counter
	flushErrors  *obs.Counter
	stagedBytes  *obs.Gauge
	memHits      *obs.Counter
	diskHits     *obs.Counter
	corrupt      *obs.Counter
	retries      *obs.Counter
	transient    *obs.Counter
	swept        *obs.Counter
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
	return &storeMetrics{
		writes:       reg.Counter(p+"writes_total", "checkpoint saves and imports accepted"),
		diskWrites:   reg.Counter(p+"disk_writes_total", "frames written to disk"),
		coalesced:    reg.Counter(p+"coalesced_total", "staged saves superseded or deleted before they were flushed"),
		flushErrors:  reg.Counter(p+"flush_errors_total", "staged frames a flush failed to write (kept staged for the next flush)"),
		encodes:      reg.Counter(p+"encodes_total", "lazy saves whose encoder ran, inside the save or forced by a flush, load or export (writes_total minus this is saves that cost no encode)"),
		stagedBytes:  reg.Gauge(p+"staged_bytes", "encoded payload bytes staged for the next flush (a frame whose encoder has not run counts 0)"),
		memHits:      reg.Counter(p+"mem_hits_total", "loads served from the memory tier"),
		diskHits:     reg.Counter(p+"disk_hits_total", "loads replayed from disk"),
		corrupt:      reg.Counter(p+"corrupt_detected_total", "loads rejected by frame validation"),
		retries:      reg.Counter(p+"retries_total", "transient I/O attempts retried"),
		transient:    reg.Counter(p+"transient_failures_total", "operations that exhausted their retries"),
		swept:        reg.Counter(p+"swept_total", "stale checkpoint files removed at startup"),
		frameBytes:   reg.Histogram(p+"frame_bytes", "on-disk checkpoint frame size in bytes", ckptBytesBuckets),
		writeLatency: reg.WallHistogram(p+"write_seconds", "wall-clock disk write latency", ckptLatencyBuckets),
		readLatency:  reg.WallHistogram(p+"read_seconds", "wall-clock disk read latency", ckptLatencyBuckets),
	}
}
