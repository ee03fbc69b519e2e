// Package serve hosts the long-lived serving mode: a wall-clock driver
// around the virtual-time AQP arbiter. Clients submit completion-criteria
// statements (Fig. 3 syntax, e.g. "q5 ACC MIN 80% WITHIN 900 SECONDS")
// over a Unix socket carrying one JSON object per line; the server admits
// or refuses them through the admission controller, arbitrates them on
// the shared virtual clock, and reports status and overload counters on
// demand. Beyond submit/status/stats/advance/drain, the protocol exposes
// live observability ops: "metrics" returns the Prometheus text rendering
// of the obs registry, "trace-tail" returns the last N events of the
// executor's bounded trace ring (with the overwrite count), and "health"
// is a cheap liveness probe reporting job counts and the virtual clock.
//
// The engine stays single-threaded: one driver goroutine owns the engine
// and executor exclusively. Connection handlers never touch either — they
// forward requests over a channel and relay the reply. Wall-clock pacing
// maps real time onto the virtual clock at a configurable rate; a drain
// (the SIGTERM path) stops accepting work and fast-forwards virtual time
// until every in-flight job reaches a terminal status, which each job's
// deadline watchdog guarantees is a bounded wait.
package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"rotary/internal/admission"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/metrics"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// overloadRetrySecs is the base retry hint on "overloaded" refusals; the
// hint scales with how saturated the admission queue is relative to its
// configured bound.
const overloadRetrySecs = 0.25

// clockJournalSecs bounds how far the virtual clock may advance without a
// journaled position: an idle paced server persists a clock record at
// least this often (in virtual seconds).
const clockJournalSecs = 60

// Config parameterizes the server.
type Config struct {
	// Socket is the Unix socket path to listen on.
	Socket string
	// Listeners are extra listen specs served alongside Socket:
	// "tcp:host:port" or "unix:/path". Every listener speaks both codecs
	// (negotiated per connection), so one daemon can serve local debug
	// clients on the socket and fleet traffic over TCP.
	Listeners []string
	// IngressDepth bounds the ingress ring between connection handlers
	// and the driver. A full ring refuses new requests with code
	// "overloaded" and a retry hint instead of buffering without bound.
	// Defaults to 1024.
	IngressDepth int
	// IngressBatch is how many queued requests the driver drains per
	// wakeup. The batch shares one channel-hop wakeup and — on a
	// journaled server — one group-commit fsync covering every record the
	// batch staged. 1 restores the request-at-a-time, fsync-per-submit
	// behaviour (the load generator's baseline mode). Defaults to 64.
	IngressBatch int
	// Pace is how many virtual seconds elapse per wall-clock second.
	// Zero freezes the clock between requests — virtual time then only
	// advances on submit, advance, and drain (the deterministic-test
	// mode).
	Pace float64
	// Tick is the wall-clock pacing granularity. Defaults to 50 ms.
	Tick time.Duration
	// Obs selects the metrics registry served by the "metrics" op (and
	// holding the server's own request counters). Nil uses the
	// process-wide obs.Default(), which the executor's and admission
	// controller's counters also land on by default.
	Obs *obs.Registry
	// Journal, when set, makes the arbiter durable: every serve-state
	// transition is fsynced to the write-ahead journal before the client
	// sees the reply, and New replays the journal's recovered state —
	// re-registering every non-terminal job with the executor, restoring
	// the virtual clock, and rebuilding the admission queue in original
	// arrival order. Nil keeps the process-scoped (PR 3) behaviour.
	Journal *Journal
	// HealProbeSecs is how often (wall seconds) a degraded journal is
	// probed for healing: the driver attempts Journal.Heal at most this
	// often, and degraded refusals carry it as retry_after_secs so
	// clients back off on the probe cadence. Defaults to 0.5.
	HealProbeSecs float64
	// MaxHealFailures caps consecutive failed heal attempts. Past the
	// cap the server stops probing and the health op reports
	// "journal-failed" — the supervisor's signal that self-healing lost
	// and a restart is the remaining move. Defaults to 8.
	MaxHealFailures int
}

// Message is one client request line.
type Message struct {
	// Op selects the operation: "submit", "status", "stats", "advance",
	// "metrics", "trace-tail", "health", "resume", or "drain".
	Op string `json:"op"`
	// ID names the job for submit (optional; generated when empty) and
	// status.
	ID string `json:"id,omitempty"`
	// ReqID is a client-supplied idempotency key for submit: a resubmit
	// carrying a ReqID the journal (or this incarnation) has already
	// accepted returns the existing job's status instead of a duplicate
	// job, so a client that lost a reply to a crash can safely retry.
	ReqID string `json:"req_id,omitempty"`
	// ServerEpoch is the resume-handshake payload: the server epoch the
	// client last observed. A mismatch in the reply (code
	// "server-restarted") tells the client the daemon restarted since.
	ServerEpoch int `json:"server_epoch,omitempty"`
	// Statement is the submit payload: a query name with an appended
	// Fig. 3 accuracy criterion, e.g. "q5 ACC MIN 80% WITHIN 900 SECONDS".
	Statement string `json:"statement,omitempty"`
	// Tenant attributes a submit to a tenant for quota enforcement, fair
	// share, and per-tenant telemetry. Empty means the default tenant.
	// On a router-fronted daemon the tenant is also the placement key, so
	// one tenant's jobs co-locate deterministically on one shard.
	Tenant string `json:"tenant,omitempty"`
	// Shard addresses one shard of a sharded (router-fronted) daemon: the
	// migration target for "migrate", the shard whose trace ring
	// "trace-tail" reads, and the shard to retire for "retire". Encoded
	// without omitempty because shard 0 is a valid explicit target.
	Shard int `json:"shard"`
	// Job is the migrate-in payload: the journaled lifecycle record of a
	// job detached from another shard, carrying everything the receiving
	// shard needs to rebuild it (statement, original arrival for
	// absolute-deadline arithmetic, epoch count, best-effort flag).
	Job *JobRecord `json:"job,omitempty"`
	// BatchRows overrides the server's default batch size for this job.
	BatchRows int `json:"batch_rows,omitempty"`
	// Seconds is the advance payload: virtual seconds to fast-forward.
	Seconds float64 `json:"seconds,omitempty"`
	// Wall selects whether the "metrics" op includes wall-clock-derived
	// metrics. The default false keeps the response deterministic for a
	// seeded run (golden comparisons rely on this).
	Wall bool `json:"wall,omitempty"`
	// N bounds the "trace-tail" op: how many trailing trace events to
	// render (default 32).
	N int `json:"n,omitempty"`
}

// Machine-readable response codes: retrying clients branch on Code
// instead of string-matching Error.
const (
	// CodeDraining: the server is draining; the request was not (or may
	// not have been) processed. Safe to retry against a restarted server.
	CodeDraining = "draining"
	// CodeBadRequest: the request was malformed (bad JSON, bad statement,
	// invalid argument). Retrying unchanged will fail again.
	CodeBadRequest = "bad-request"
	// CodeTooLarge: the request line exceeded the protocol's line limit;
	// the connection closes after this reply.
	CodeTooLarge = "too-large"
	// CodeDuplicateRequest: the submit duplicated an existing job id or
	// an already-accepted req_id (the latter replies OK with the existing
	// job's status — the idempotent-resubmit path).
	CodeDuplicateRequest = "duplicate-request"
	// CodeUnknownOp: the op is not part of the protocol.
	CodeUnknownOp = "unknown-op"
	// CodeUnknownJob: no job with the requested id.
	CodeUnknownJob = "unknown-job"
	// CodeAdmissionRefused: the admission controller rejected or shed the
	// submission.
	CodeAdmissionRefused = "admission-refused"
	// CodeServerRestarted: the resume handshake detected a server epoch
	// newer than the client's — the daemon restarted; journaled jobs were
	// recovered, unjournaled replies may have been lost.
	CodeServerRestarted = "server-restarted"
	// CodeShardUnavailable: the shard owning the request is down and under
	// supervised restart. The reply carries retry_after_secs; the request
	// was not processed and is safe to retry (submits should carry a
	// req_id). A shard whose driver exits mid-request answers this too,
	// instead of leaving the caller waiting.
	CodeShardUnavailable = "shard-unavailable"
	// CodeShardRetired: the shard was retired; its jobs were migrated off
	// and new work is rerouted, but shard-addressed ops (trace-tail,
	// retire) have nothing to talk to.
	CodeShardRetired = "shard-retired"
	// CodeMigrateNoop: the job reached a terminal status before (or while)
	// the migration drained it — there is nothing left to move, and the
	// reply carries the terminal status.
	CodeMigrateNoop = "migrate-noop"
	// CodeMigrateBusy: the job is mid-transition (running or in limbo) and
	// could not be drained to a detachable state; retry.
	CodeMigrateBusy = "migrate-busy"
	// CodeBadShard: the shard index is out of range.
	CodeBadShard = "bad-shard"
	// CodeTenantQuota: the submission was refused by the tenant's quota
	// (submit-rate bucket, concurrent-job cap, or queued-job cap). The
	// reply carries retry_after_secs when the refusal is time-based; the
	// tenant should back off instead of hammering the shared queue.
	CodeTenantQuota = "tenant-quota"
	// CodeOverloaded: the ingress ring is full — the serving front end is
	// saturated and refused the request instead of buffering it without
	// bound. The request was not processed; the reply carries
	// retry_after_secs scaled by how far the admission queue is over its
	// configured bound.
	CodeOverloaded = "overloaded"
	// CodeJournalDegraded: the write-ahead journal is degraded (an append
	// failed mid-record), so the server cannot honor the write-ahead
	// contract for state-changing ops and refuses them — with a
	// retry_after_secs hint, because degradation is recoverable: a
	// background prober rolls the journal to a fresh segment and lifts
	// the latch once the disk cooperates. Read ops keep working; the
	// health op reports the cause ("journal-degraded" while healing is
	// still being attempted, "journal-failed" once the heal budget is
	// exhausted and a supervised restart is the remaining move).
	CodeJournalDegraded = "journal-degraded"
)

// Response is one server reply line.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is the machine-readable classification of the reply (set on
	// every error, and on OK replies that carry a caveat, e.g.
	// duplicate-request dedupe hits and restart detections).
	Code   string `json:"code,omitempty"`
	ID     string `json:"id,omitempty"`
	Status string `json:"status,omitempty"`
	// Tenant echoes the submit/status subject's tenant attribution — and
	// only that tenant's; replies never carry another tenant's state.
	Tenant     string  `json:"tenant,omitempty"`
	Accuracy   float64 `json:"accuracy,omitempty"`
	Progress   float64 `json:"progress,omitempty"`
	BestEffort bool    `json:"best_effort,omitempty"`
	VirtualNow float64 `json:"virtual_now,omitempty"`
	Jobs       int     `json:"jobs,omitempty"`
	Terminal   int     `json:"terminal,omitempty"`
	Report     string  `json:"report,omitempty"`
	// Dropped reports the tracer ring's overwritten-event count
	// (trace-tail and health ops).
	Dropped uint64 `json:"dropped,omitempty"`
	// ServerEpoch identifies the daemon incarnation (resume and health
	// ops; journaled servers increment it every restart). A router reports
	// the sum of its shards' epochs, so any shard restart still reads as a
	// change.
	ServerEpoch int `json:"server_epoch,omitempty"`
	// Recovered reports how many journaled non-terminal jobs this
	// incarnation re-registered at startup (resume and health ops).
	Recovered int `json:"recovered,omitempty"`
	// RetryAfterSecs hints when a shard-unavailable request is worth
	// retrying (the supervisor's current restart-backoff horizon).
	RetryAfterSecs float64 `json:"retry_after_secs,omitempty"`
	// Shard reports which shard handled (or owns) the request on a
	// router-fronted daemon (submit, status, migrate replies).
	Shard int `json:"shard,omitempty"`
	// Shards is the per-shard supervision report of the "shards" op.
	Shards []ShardInfo `json:"shards,omitempty"`
	// Job is the migrate-out reply payload: the detached job's journaled
	// lifecycle record, which the router hands to the receiving shard.
	Job *JobRecord `json:"job,omitempty"`
}

// ShardInfo is one shard's row in the router's "shards" report.
type ShardInfo struct {
	Index       int     `json:"index"`
	State       string  `json:"state"`
	Restarts    int     `json:"restarts"`
	Jobs        int     `json:"jobs,omitempty"`
	Terminal    int     `json:"terminal,omitempty"`
	VirtualNow  float64 `json:"virtual_now,omitempty"`
	ServerEpoch int     `json:"server_epoch,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// maxLineBytes bounds one request line; longer lines are answered with
// code "too-large" and the connection closes (the stream position is
// unrecoverable mid-line).
const maxLineBytes = 1 << 20

type request struct {
	msg   Message
	reply chan Response
}

// Server is the live arbiter.
type Server struct {
	cfg  Config
	exec *core.AQPExecutor
	cat  *tpch.Catalog
	// batchRows is the per-step batch size for submissions that do not
	// specify one: the catalog's recommended size.
	batchRows int
	reg       *obs.Registry
	met       *serveMetrics

	// reqCh is the bounded ingress ring: connection handlers enqueue
	// without blocking (a full ring is an overload refusal) and the
	// driver drains up to IngressBatch requests per wakeup.
	reqCh   chan request
	drainCh chan chan Response
	doneCh  chan struct{}
	killCh  chan struct{}

	// Durability state (driver goroutine only, except the immutable
	// serverEpoch/recovered set in New).
	jl          *Journal
	serverEpoch int
	recovered   int
	reqIndex    map[string]string // req_id -> job id
	lastClockAt float64
	jlErr       error
	ckptErr     error // the last checkpoint flush's failure, nil once one succeeds
	// Heal probing (driver goroutine only): lastHealProbe rate-limits
	// Journal.Heal attempts to one per HealProbeSecs; healFails counts
	// consecutive failed attempts — at MaxHealFailures the prober stops
	// and the health op escalates to "journal-failed".
	lastHealProbe time.Time
	healFails     int

	// Job bookkeeping (driver goroutine only). jobIndex holds every job
	// registered with the executor this incarnation — the O(1) lookup
	// behind status and duplicate checks that used to scan exec.Jobs().
	// liveJobs is the subset not yet journal-terminal, each with its
	// journal mark (no other job keeps one): syncState looks up only the
	// jobs the executor noted, so a sweep costs what changed, not what is
	// live.
	jobIndex   map[string]*core.AQPJob
	liveJobs   map[string]*liveEntry
	terminal   int
	nextAutoID int
	// noted is syncState's last batch from exec.TakeNoted, handed back as
	// the next queue's buffer.
	noted []*core.AQPJob
	// requestHook is a test hook run on the driver goroutine after each
	// request of a batch is handled; nil in production.
	requestHook func()

	// liveSize mirrors len(liveJobs) for connection handlers computing
	// overload retry hints without touching driver state.
	liveSize atomic.Int64

	// Group-commit staging (driver goroutine only): while a batch is
	// being handled, journal() stages records here instead of appending;
	// the batch ends with one Append — one fsync for the whole group.
	staging bool
	staged  []Record
	// droppedStaged shelves the records of a failed group commit. Their
	// requests already moved server state — jobs registered, req_ids
	// indexed, sync marks advanced — before the flush failed, so simply
	// discarding them would leave ghost jobs the journal never heard of.
	// A successful heal re-appends the shelf onto the fresh segment
	// before the catch-up sweep, restoring journal/state agreement.
	droppedStaged []Record

	listenerSet

	mu       sync.Mutex // guards final
	final    Response
	killOnce sync.Once
}

// liveEntry is one live job's row in liveJobs: the job and its journal
// mark, the last journaled position syncState diffs the executor's live
// state against. syncState finds it by the id of a noted job and diffs
// only when the job is this very object — a detached job (migrate-out)
// has no entry, and its id may come back as a new one.
type liveEntry struct {
	j       *core.AQPJob
	running bool
	epochs  int
}

// New builds a server over an executor and the catalog its jobs bind to.
// The executor must not be Run — the server drives its engine itself.
func New(cfg Config, exec *core.AQPExecutor, cat *tpch.Catalog) (*Server, error) {
	if cfg.Socket == "" {
		return nil, errors.New("serve: socket path required")
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	if cfg.Pace < 0 {
		cfg.Pace = 0
	}
	if err := exec.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	if cfg.IngressDepth <= 0 {
		cfg.IngressDepth = 1024
	}
	if cfg.IngressBatch <= 0 {
		cfg.IngressBatch = 64
	}
	if cfg.HealProbeSecs <= 0 {
		cfg.HealProbeSecs = 0.5
	}
	if cfg.MaxHealFailures <= 0 {
		cfg.MaxHealFailures = 8
	}
	s := &Server{
		cfg:         cfg,
		exec:        exec,
		cat:         cat,
		batchRows:   workload.RecommendedBatchRows(cat),
		reg:         reg,
		met:         newServeMetrics(reg),
		reqCh:       make(chan request, cfg.IngressDepth),
		drainCh:     make(chan chan Response),
		doneCh:      make(chan struct{}),
		killCh:      make(chan struct{}),
		jl:          cfg.Journal,
		serverEpoch: 1,
		reqIndex:    make(map[string]string),
		jobIndex:    make(map[string]*core.AQPJob),
		liveJobs:    make(map[string]*liveEntry),
	}
	if s.jl != nil {
		s.serverEpoch = s.jl.ServerEpoch()
		if err := s.recoverFromJournal(); err != nil {
			return nil, err
		}
	}
	s.met.serverEpoch.Set(float64(s.serverEpoch))
	return s, nil
}

// serveMetrics holds the server's own obs handles: per-op request
// counters, the virtual-clock position, and the pacing-drift gauge.
type serveMetrics struct {
	requests map[string]*obs.Counter
	other    *obs.Counter
	// paceDrift is wall-class: how many wall-clock seconds the virtual
	// clock lagged the ideal pace line at the last tick, measured before
	// the tick's catch-up. Healthy scheduling keeps it near the tick
	// interval; growth means the driver cannot keep pace.
	paceDrift  *obs.Gauge
	virtualNow *obs.Gauge
	// Durability handles: restart-recovery and journal activity, plus the
	// protocol-hardening drop counters.
	serverEpoch    *obs.Gauge
	recoveredJobs  *obs.Counter
	journalRecords *obs.Counter
	journalCompact *obs.Counter
	journalErrors  *obs.Counter
	journalHeals   *obs.Counter
	healFailures   *obs.Counter
	oversized      *obs.Counter
	dedupedSubmits *obs.Counter
	// journalSize / journalSnapshot are the active segment's size and the
	// size of the snapshot line heading it: compaction fires when the
	// first passes max(floor, 2 × the second).
	journalSize     *obs.Gauge
	journalSnapshot *obs.Gauge
	// Heavy-traffic front-end handles. Batch counters are deterministic
	// for a sequential client (every request is its own batch); the batch
	// size distribution and ring depth depend on wall-clock arrival
	// interleaving, so they are wall-class and excluded from
	// deterministic renders.
	batches      *obs.Counter
	batchedReqs  *obs.Counter
	groupCommits *obs.Counter
	overloaded   *obs.Counter
	batchSize    *obs.Histogram
	ingressDepth *obs.Gauge
	conns        map[string]*obs.Counter
}

// serveOps are the protocol operations with pre-registered counters;
// anything else lands on op="other".
var serveOps = []string{"submit", "status", "stats", "advance", "metrics", "trace-tail", "health", "resume", "drain", "migrate-out", "migrate-commit", "migrate-in"}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{requests: make(map[string]*obs.Counter, len(serveOps))}
	for _, op := range serveOps {
		m.requests[op] = reg.Counter(fmt.Sprintf("rotary_serve_requests_total{op=%q}", op), "client requests by operation")
	}
	m.other = reg.Counter(`rotary_serve_requests_total{op="other"}`, "client requests by operation")
	m.paceDrift = reg.WallGauge("rotary_serve_pace_drift_secs",
		"wall seconds the virtual clock lagged the pace line at the last tick (pre catch-up)")
	m.virtualNow = reg.Gauge("rotary_serve_virtual_now_secs", "virtual clock position")
	m.serverEpoch = reg.Gauge("rotary_serve_server_epoch", "daemon incarnation (increments per journaled restart)")
	m.recoveredJobs = reg.Counter("rotary_serve_recovered_jobs_total", "journaled non-terminal jobs re-registered at startup")
	m.journalRecords = reg.Counter("rotary_serve_journal_records_total", "journal records appended by this incarnation")
	m.journalCompact = reg.Counter("rotary_serve_journal_compactions_total", "journal compactions to a snapshot record")
	m.journalSize = reg.Gauge("rotary_serve_journal_size_bytes", "active journal segment size after the last append")
	m.journalSnapshot = reg.Gauge("rotary_serve_journal_snapshot_bytes", "size of the snapshot record heading the active journal segment (0 if none)")
	m.journalErrors = reg.Counter("rotary_serve_journal_errors_total", "journal append failures (durability degraded)")
	m.journalHeals = reg.Counter("rotary_serve_journal_heals_total", "degraded journals healed by rolling to a fresh segment")
	m.healFailures = reg.Counter("rotary_serve_journal_heal_failures_total", "failed heal attempts against a degraded journal")
	m.oversized = reg.Counter("rotary_serve_oversized_requests_total", "request lines dropped for exceeding the line limit")
	m.dedupedSubmits = reg.Counter("rotary_serve_deduped_submits_total", "submits answered from the req_id dedupe index")
	m.batches = reg.Counter("rotary_serve_ingress_batches_total", "driver wakeups (one per drained request batch)")
	m.batchedReqs = reg.Counter("rotary_serve_ingress_requests_total", "requests drained from the ingress ring")
	m.groupCommits = reg.Counter("rotary_serve_group_commits_total", "journal flushes that coalesced a multi-record group under one fsync")
	m.overloaded = reg.Counter("rotary_serve_overloaded_total", "requests refused because the ingress ring was full")
	m.batchSize = reg.WallHistogram("rotary_serve_ingress_batch_size", "requests per driver batch",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	m.ingressDepth = reg.WallGauge("rotary_serve_ingress_depth", "requests queued in the ingress ring at the last driver wakeup")
	m.conns = map[string]*obs.Counter{
		CodecJSON:   reg.Counter(`rotary_serve_conns_total{codec="json"}`, "accepted connections by negotiated codec"),
		CodecBinary: reg.Counter(`rotary_serve_conns_total{codec="binary"}`, "accepted connections by negotiated codec"),
	}
	return m
}

func (m *serveMetrics) count(op string) {
	if c, ok := m.requests[op]; ok {
		c.Inc()
		return
	}
	m.other.Inc()
}

// Serve binds the configured socket plus every extra listener and
// blocks until a drain completes (a client "drain" op or a Drain call,
// typically from the SIGTERM handler).
func (s *Server) Serve() error {
	if err := s.bind(s.cfg.Socket, s.cfg.Listeners); err != nil {
		// No driver will ever run: release whoever waits on one (Kill, and
		// in-process callers of dispatch) instead of leaving them blocked.
		close(s.doneCh)
		return err
	}
	go s.drive()
	s.acceptAll(s.dispatch,
		func(codec string) { s.met.conns[codec].Inc() },
		func() { s.met.oversized.Inc() })
	<-s.doneCh
	s.quiesce()
	return nil
}

// removeStaleSocket clears a dead Unix socket left by an unclean exit
// (SIGKILL never runs the listener's unlink): if the path exists, is a
// socket, and nothing answers a dial, it is removed so net.Listen can
// bind. A live socket (the dial succeeds) is left alone — net.Listen then
// fails with the honest "address already in use".
func removeStaleSocket(path string) error {
	fi, err := os.Stat(path)
	if err != nil || fi.Mode()&os.ModeSocket == 0 {
		return nil // absent, or not a socket: let net.Listen report it
	}
	conn, err := net.DialTimeout("unix", path, 250*time.Millisecond)
	if err == nil {
		conn.Close()
		return nil // a live server owns it
	}
	if rmErr := os.Remove(path); rmErr != nil {
		return fmt.Errorf("serve: remove stale socket %s: %w", path, rmErr)
	}
	return nil
}

// Kill abruptly stops the server — the in-process stand-in for SIGKILL
// the kill-restart chaos suite uses. No drain, no final journal record,
// no flush beyond what each transition's append already fsynced: the
// on-disk journal after Kill is exactly what a real `kill -9` would
// leave. The executor's in-memory state is simply abandoned.
func (s *Server) Kill() {
	s.killOnce.Do(func() { close(s.killCh) })
	s.closeListeners()
	<-s.doneCh
	if s.jl != nil {
		s.jl.Close()
	}
}

// Drain initiates a graceful drain from outside the protocol (the
// SIGTERM handler): stop accepting, fast-forward the in-flight jobs to
// termination, shut down. It returns the final drain response; if the
// server is already draining it reports that without blocking.
func (s *Server) Drain() Response {
	rc := make(chan Response, 1)
	select {
	case s.drainCh <- rc:
		return <-rc
	case <-s.doneCh:
		return s.Final()
	}
}

// Final reports the drain response once the server has drained (zero
// Response before then) — the shutdown report main prints after Serve
// returns.
func (s *Server) Final() Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// drive is the single goroutine that owns the engine and executor.
//
// Pacing uses a fixed start anchor: every tick advances the clock to
// base + Pace × (wall elapsed since anchor). The previous per-tick
// time.Now() deltas let each tick's scheduler lateness compound into
// permanent drift; against a fixed anchor a late tick is self-correcting
// — the next target already includes the time the tick missed. External
// clock jumps (the advance op, a submit's same-instant arbitration past
// the pace line) re-anchor so pacing resumes from the new position
// instead of freezing until wall time catches up.
func (s *Server) drive() {
	defer close(s.doneCh)
	var tickC <-chan time.Time
	if s.cfg.Pace > 0 {
		ticker := time.NewTicker(s.cfg.Tick)
		defer ticker.Stop()
		tickC = ticker.C
	}
	eng := s.exec.Engine()
	anchor := time.Now()
	base := eng.Now()
	target := func() sim.Time {
		return base + sim.Time(time.Since(anchor).Seconds()*s.cfg.Pace)
	}
	for {
		select {
		case r := <-s.reqCh:
			if s.handleBatch(r) {
				return
			}
			if eng.Now() > target() {
				anchor = time.Now()
				base = eng.Now()
			}
		case rc := <-s.drainCh:
			rc <- s.drainNow()
			return
		case <-s.killCh:
			return
		case <-tickC:
			t := target()
			if lag := (t - eng.Now()).Seconds(); lag > 0 {
				s.met.paceDrift.Set(lag / s.cfg.Pace)
				eng.RunUntil(t)
			}
			s.met.virtualNow.Set(eng.Now().Seconds())
			s.maybeHeal(false)
			s.syncState()
		}
	}
}

// maybeHeal probes a degraded journal for recovery (driver goroutine
// only). Probes are rate-limited to one per HealProbeSecs unless
// forced, and stop entirely once MaxHealFailures consecutive attempts
// have lost — past that the health op reports "journal-failed" and
// escalation belongs to the supervisor, not to a prober hammering a
// dead disk. A successful heal rolled the journal to a fresh verified
// segment: the latch is lifted, the clock position is re-journaled,
// and one syncState sweep re-emits every transition the freeze
// skipped while degraded — so the new segment's snapshot-plus-diffs
// catches the journal up to live state before the next durable ack.
func (s *Server) maybeHeal(force bool) {
	if s.jl == nil || s.jl.Degraded() == nil {
		return
	}
	if s.healFails >= s.cfg.MaxHealFailures {
		return
	}
	if !force && time.Since(s.lastHealProbe).Seconds() < s.cfg.HealProbeSecs {
		return
	}
	s.lastHealProbe = time.Now()
	if err := s.jl.Heal(); err != nil {
		s.healFails++
		s.met.healFailures.Inc()
		s.jlErr = err
		return
	}
	s.healFails = 0
	s.jlErr = nil
	s.met.journalHeals.Inc()
	// Replay the shelf first: the failed groups' submits must precede the
	// catch-up sweep's grant/epoch records for the same jobs, or replay
	// would drop them as records for an unknown id.
	if len(s.droppedStaged) > 0 {
		recs := s.droppedStaged
		s.droppedStaged = nil
		if err := s.appendNow(recs); err != nil {
			// The disk failed again mid-recovery: the journal re-latched
			// degraded and the shelf goes back for the next heal.
			s.droppedStaged = recs
			return
		}
	}
	s.journalClock()
	s.syncState()
}

// pendingReply is one batched request's computed reply, held until the
// group's journal records are durable.
type pendingReply struct {
	reply chan Response
	resp  Response
	// journaled marks a reply whose request staged journal records: its
	// release is conditional on the group commit succeeding.
	journaled bool
}

// handleBatch drains up to IngressBatch-1 more requests from the ring
// and handles them as one group: every request's journal records are
// staged, the whole group is appended under ONE fsync, and only then are
// the replies released — the write-ahead contract each submit used to
// buy with a private fsync now holds per group, at 1/len(batch) the
// cost. Returns true when a drain op ended the server.
func (s *Server) handleBatch(first request) bool {
	batch := make([]request, 1, s.cfg.IngressBatch)
	batch[0] = first
fill:
	for len(batch) < s.cfg.IngressBatch {
		select {
		case r := <-s.reqCh:
			batch = append(batch, r)
		default:
			break fill
		}
	}
	s.met.batches.Inc()
	s.met.batchedReqs.Add(int64(len(batch)))
	s.met.batchSize.Observe(float64(len(batch)))
	s.met.ingressDepth.Set(float64(len(s.reqCh)))
	// An unpaced server has no tick: request arrival is the only chance
	// a degraded journal gets to heal before refusing the batch's writes.
	s.maybeHeal(false)
	pending := make([]pendingReply, 0, len(batch))
	flushRelease := func() {
		err := s.flushStaged()
		for _, p := range pending {
			if err != nil && p.journaled {
				// The group commit failed: these records are NOT durable, so
				// the computed (often OK) replies must not be released — the
				// client would hold a reply the write-ahead contract cannot
				// back. The in-memory job still runs; a req_id retry dedupes.
				p.reply <- Response{
					Error:          "serve: journal degraded: " + err.Error(),
					Code:           CodeJournalDegraded,
					RetryAfterSecs: s.cfg.HealProbeSecs,
				}
				continue
			}
			p.reply <- p.resp
		}
		pending = pending[:0]
	}
	for i, r := range batch {
		if r.msg.Op == "drain" {
			// Release everything handled so far (their records must sync
			// before their replies), then drain; later requests in the batch
			// see the draining refusal dispatch would have given them.
			flushRelease()
			s.met.count("drain")
			r.reply <- s.drainNow()
			for _, rest := range batch[i+1:] {
				rest.reply <- Response{Error: "serve: server draining", Code: CodeDraining}
			}
			return true
		}
		stagedBefore := len(s.staged)
		s.staging = true
		resp := s.handle(r.msg)
		s.staging = false
		if s.requestHook != nil {
			s.requestHook()
		}
		pending = append(pending, pendingReply{
			reply:     r.reply,
			resp:      resp,
			journaled: len(s.staged) > stagedBefore,
		})
	}
	flushRelease()
	return false
}

// flushStaged group-commits the records the current batch staged: one
// Append, one fsync, covering every request in the group. Returns the
// append error so handleBatch can withhold write-ahead-dependent
// replies.
func (s *Server) flushStaged() error {
	if len(s.staged) == 0 {
		return nil
	}
	recs := s.staged
	s.staged = s.staged[:0]
	if err := s.appendNow(recs); err != nil {
		// Shelve the group (copied — staged's backing array is reused) for
		// the post-heal replay.
		s.droppedStaged = append(s.droppedStaged, recs...)
		return err
	}
	if len(recs) > 1 {
		s.met.groupCommits.Inc()
	}
	return nil
}

// drainNow stops the listeners and fast-forwards virtual time until
// every submitted job is terminal. Every admitted job carries a deadline
// watchdog event, so the event queue cannot run dry before the jobs do —
// but if it somehow does, the failure is reported, not hidden.
func (s *Server) drainNow() Response {
	s.closeListeners()
	// A drain must not leave terminal outcomes un-journaled behind a
	// frozen syncState: give a degraded journal one forced, unthrottled
	// heal attempt so the drain's sweeps land on a working segment.
	s.maybeHeal(true)
	eng := s.exec.Engine()
	for len(s.liveJobs) > 0 {
		progressed := false
		// Step a block of events between syncs: each sweep diffs only the
		// jobs the block moved, so a block costs its events.
		for i := 0; i < 256; i++ {
			if !eng.Step() {
				break
			}
			progressed = true
		}
		s.syncState()
		if !progressed {
			break
		}
	}
	s.syncState()
	resp := s.statsResponse()
	resp.Status = "drained"
	if left := len(s.liveJobs); left > 0 {
		resp.OK = false
		resp.Error = fmt.Sprintf("serve: drain left %d jobs unterminated", left)
	}
	s.mu.Lock()
	s.final = resp
	s.mu.Unlock()
	return resp
}

// terminalCount reports how many registered jobs have reached a terminal
// status (maintained incrementally by syncState — no executor scan).
func (s *Server) terminalCount() int { return s.terminal }

// knownJobID reports whether a job id is taken: registered this
// incarnation, or remembered by the journal (including jobs terminal
// before a restart, which are never re-registered).
func (s *Server) knownJobID(id string) bool {
	if _, ok := s.jobIndex[id]; ok {
		return true
	}
	if s.jl != nil {
		if _, ok := s.jl.Job(id); ok {
			return true
		}
	}
	return false
}

// registerJob indexes a job the executor just accepted (submit, journal
// recovery, migrate-in), with its journal mark at epochs: the count the
// journal already holds for it (0 for a fresh submit).
func (s *Server) registerJob(j *core.AQPJob, epochs int) {
	id := j.ID()
	s.jobIndex[id] = j
	s.liveJobs[id] = &liveEntry{j: j, epochs: epochs}
	s.liveSize.Store(int64(len(s.liveJobs)))
}

// unregisterJob drops a detached job (migrate-out): it is no longer the
// executor's — status answers from the journal until migrate-commit.
func (s *Server) unregisterJob(id string) {
	delete(s.jobIndex, id)
	delete(s.liveJobs, id)
	s.liveSize.Store(int64(len(s.liveJobs)))
}

// handle executes one request against the executor (driver goroutine
// only).
func (s *Server) handle(m Message) Response {
	s.met.count(m.Op)
	defer s.met.virtualNow.Set(s.exec.Engine().Now().Seconds())
	switch m.Op {
	case "submit":
		return s.submit(m)
	case "status":
		return s.status(m)
	case "stats":
		return s.statsResponse()
	case "advance":
		if m.Seconds < 0 {
			return Response{Error: "serve: advance seconds must be >= 0", Code: CodeBadRequest}
		}
		eng := s.exec.Engine()
		eng.RunUntil(eng.Now() + sim.Time(m.Seconds))
		// An explicit clock jump is journaled unconditionally: a restart
		// must resume at the advanced position, not rewind to the last job
		// transition.
		s.journalClock()
		s.syncState()
		return Response{OK: true, VirtualNow: eng.Now().Seconds()}
	case "resume":
		// The restart handshake: the client reports the server epoch it
		// last saw; a newer epoch means the daemon restarted under it and
		// journaled jobs were recovered (unjournaled replies may be lost —
		// resubmit with req_id to dedupe).
		resp := Response{
			OK:          true,
			ServerEpoch: s.serverEpoch,
			Recovered:   s.recovered,
			Jobs:        len(s.jobIndex),
			Terminal:    s.terminalCount(),
			VirtualNow:  s.exec.Engine().Now().Seconds(),
		}
		if m.ServerEpoch != 0 && m.ServerEpoch != s.serverEpoch {
			resp.Code = CodeServerRestarted
		}
		return resp
	case "metrics":
		// Wall metrics are excluded by default so a seeded run's response
		// is replay-stable; {"op":"metrics","wall":true} includes them.
		return Response{
			OK:         true,
			VirtualNow: s.exec.Engine().Now().Seconds(),
			Report:     s.reg.RenderText(m.Wall),
		}
	case "trace-tail":
		tr := s.exec.Tracer()
		if tr == nil {
			return Response{Error: "serve: tracing disabled (executor has no Tracer configured)"}
		}
		n := m.N
		if n <= 0 {
			n = 32
		}
		return Response{
			OK:         true,
			VirtualNow: s.exec.Engine().Now().Seconds(),
			Report:     tr.Render(n),
			Dropped:    tr.Dropped(),
		}
	case "migrate-out":
		return s.migrateOut(m)
	case "migrate-commit":
		return s.migrateCommit(m)
	case "migrate-in":
		return s.migrateIn(m)
	case "health":
		resp := Response{
			OK:          true,
			Status:      "healthy",
			Jobs:        len(s.jobIndex),
			Terminal:    s.terminalCount(),
			VirtualNow:  s.exec.Engine().Now().Seconds(),
			ServerEpoch: s.serverEpoch,
			Recovered:   s.recovered,
		}
		// Journal health is three-state: healthy; journal-degraded (heals
		// still being attempted — retry_after_secs carries the probe
		// cadence); journal-failed (heal budget exhausted — the
		// supervisor's restart-escalation trigger).
		if s.jl != nil && s.jl.Degraded() != nil {
			if s.healFails >= s.cfg.MaxHealFailures {
				resp.Status = "journal-failed"
			} else {
				resp.Status = "journal-degraded"
				resp.RetryAfterSecs = s.cfg.HealProbeSecs
			}
			resp.Error = s.jl.Degraded().Error()
		} else if s.jlErr != nil {
			resp.Status = "journal-degraded"
			resp.Error = s.jlErr.Error()
		}
		// A failed checkpoint flush costs recovery freshness, not the
		// write-ahead contract: reported beside a journal status, never as one.
		if s.ckptErr != nil {
			if resp.Error == "" {
				resp.Status = "checkpoint-degraded"
				resp.Error = s.ckptErr.Error()
			} else {
				resp.Error += "; " + s.ckptErr.Error()
			}
		}
		if tr := s.exec.Tracer(); tr != nil {
			resp.Dropped = tr.Dropped()
		}
		return resp
	default:
		return Response{Error: fmt.Sprintf("serve: unknown op %q", m.Op), Code: CodeUnknownOp}
	}
}

// submit parses the statement, binds the job, and pushes it through the
// admission gate at the current virtual instant. The arrival (and its
// admission verdict) is forced to fire before replying, so the response
// carries the decision. With a journal configured the ordering is
// write-ahead: the submit record is fsynced before the executor sees the
// job, and the verdict (plus any same-instant grant) is fsynced before
// the client sees the reply — an admitted job is never silently dropped
// by a crash.
func (s *Server) submit(m Message) Response {
	// Idempotent resubmit: a req_id the journal (or this incarnation) has
	// already accepted returns the existing job's status instead of a
	// duplicate job.
	if m.ReqID != "" {
		if id, ok := s.reqIndex[m.ReqID]; ok {
			s.met.dedupedSubmits.Inc()
			resp := s.status(Message{ID: id})
			resp.Code = CodeDuplicateRequest
			return resp
		}
	}
	spec, err := s.jobSpec(m.Statement, m.Tenant, m.BatchRows)
	if err != nil {
		return Response{Error: err.Error(), Code: CodeBadRequest}
	}
	// A degraded journal cannot back the write-ahead contract an OK
	// submit reply promises: refuse state changes (reads keep working,
	// health reports the cause) instead of silently serving undurable
	// admissions. The refusal hints the heal-probe cadence — the next
	// probe may lift the latch, so the client retries instead of giving
	// the job up.
	if s.jl != nil {
		if derr := s.jl.Degraded(); derr != nil {
			return Response{
				Error:          "serve: journal degraded: " + derr.Error(),
				Code:           CodeJournalDegraded,
				RetryAfterSecs: s.cfg.HealProbeSecs,
			}
		}
	}
	id := m.ID
	if id == "" {
		// Monotonic counter, never reused within an incarnation and
		// recovered from the journal across restarts. The historical
		// len(s.exec.Jobs()) scheme collided after migrate-out/detach
		// shrank the job set — the next auto id re-minted one already
		// taken, bouncing an innocent client with "duplicate job id".
		for {
			id = fmt.Sprintf("srv-%03d", s.nextAutoID)
			s.nextAutoID++
			if !s.knownJobID(id) {
				break
			}
		}
	} else if s.knownJobID(id) {
		return Response{Error: fmt.Sprintf("serve: duplicate job id %q", id), Code: CodeDuplicateRequest}
	}
	spec.ID = id
	j, err := workload.BuildAQPJob(s.cat, spec)
	if err != nil {
		return Response{Error: err.Error(), Code: CodeBadRequest}
	}
	eng := s.exec.Engine()
	s.journal(Record{Kind: recSubmit, ID: id, ReqID: m.ReqID, Statement: m.Statement,
		Tenant: m.Tenant, BatchRows: spec.BatchRows, At: eng.Now().Seconds()})
	s.exec.Submit(j, eng.Now())
	s.registerJob(j, 0)
	// Fire the arrival and its same-instant arbitration so the reply
	// reports the admission verdict.
	eng.RunUntil(eng.Now())
	st := j.Status()
	verdict := "admitted"
	switch {
	case st == core.StatusRejected || st == core.StatusShed:
		verdict = "rejected"
	case j.BestEffort():
		verdict = "degraded"
	}
	s.journal(Record{Kind: recVerdict, ID: id, Status: verdict, At: eng.Now().Seconds()})
	s.syncState()
	if m.ReqID != "" {
		s.reqIndex[m.ReqID] = id
	}
	resp := Response{
		ID:         id,
		Status:     st.String(),
		Tenant:     m.Tenant,
		BestEffort: j.BestEffort(),
		VirtualNow: eng.Now().Seconds(),
	}
	switch st {
	case core.StatusRejected, core.StatusShed:
		// Tenant-quota refusals get their own code plus the controller's
		// retry hint, so an over-quota tenant backs off instead of
		// hammering the shared queue.
		if cause := j.RejectErr(); cause != nil &&
			(errors.Is(cause, admission.ErrTenantQuotaExceeded) || errors.Is(cause, admission.ErrTenantQueueFull)) {
			resp.Error = "serve: " + cause.Error()
			resp.Code = CodeTenantQuota
			resp.RetryAfterSecs = j.RetryAfterSecs()
		} else {
			resp.Error = "serve: admission refused: " + st.String()
			resp.Code = CodeAdmissionRefused
		}
	default:
		resp.OK = true
	}
	return resp
}

// jobSpec turns a submitted statement into the spec of the job it asks
// for, with every check submit makes: a valid tenant id, an accuracy
// criterion, a wall-time deadline and a known query. Submit, migrate-in
// and recovery all build their jobs through it, so none of them accepts
// what submit refuses. batchRows <= 0 means the server's default.
func (s *Server) jobSpec(stmt, tenant string, batchRows int) (workload.AQPSpec, error) {
	if err := ValidateTenant(tenant); err != nil {
		return workload.AQPSpec{}, err
	}
	cmd, crit, err := criteria.Parse(stmt)
	if err != nil {
		return workload.AQPSpec{}, err
	}
	if crit.Kind != criteria.Accuracy {
		return workload.AQPSpec{}, errors.New(`serve: serving mode requires an accuracy criterion (e.g. "q5 ACC MIN 80% WITHIN 900 SECONDS")`)
	}
	deadline, ok := crit.Deadline.DeadlineSeconds()
	if !ok {
		return workload.AQPSpec{}, errors.New("serve: AQP deadlines must be wall-time, not epochs")
	}
	query := strings.ToLower(strings.TrimSpace(cmd))
	cls, err := tpch.ClassOf(query)
	if err != nil {
		return workload.AQPSpec{}, err
	}
	if batchRows <= 0 {
		batchRows = s.batchRows
	}
	return workload.AQPSpec{Query: query, Class: cls, Tenant: tenant, Accuracy: crit.Threshold,
		DeadlineSecs: deadline, BatchRows: batchRows}, nil
}

// maxTenantBytes bounds a tenant id on the wire.
const maxTenantBytes = 128

// ValidateTenant rejects tenant ids that could corrupt journals,
// metric labels, or logs: oversized, invalid UTF-8, or containing
// control characters. The empty id is valid (the default tenant).
func ValidateTenant(t string) error {
	if len(t) > maxTenantBytes {
		return fmt.Errorf("serve: tenant id exceeds %d bytes", maxTenantBytes)
	}
	if !utf8.ValidString(t) {
		return errors.New("serve: tenant id is not valid UTF-8")
	}
	for _, r := range t {
		if r < 0x20 || r == 0x7f {
			return errors.New("serve: tenant id contains control characters")
		}
	}
	return nil
}

func (s *Server) status(m Message) Response {
	if j, ok := s.jobIndex[m.ID]; ok {
		return Response{
			OK:         true,
			ID:         j.ID(),
			Status:     j.Status().String(),
			Tenant:     j.Tenant(),
			Accuracy:   j.EstimatedAccuracy(),
			Progress:   j.AttainmentProgress(),
			BestEffort: j.BestEffort(),
			VirtualNow: s.exec.Engine().Now().Seconds(),
		}
	}
	// A job that reached a terminal status before a restart is not
	// re-registered with the executor, but its outcome is durable in the
	// journal — answer from there instead of "unknown job".
	if s.jl != nil {
		if jr, ok := s.jl.Job(m.ID); ok {
			return Response{
				OK:         true,
				ID:         jr.ID,
				Status:     jr.Status,
				Tenant:     jr.Tenant,
				BestEffort: jr.BestEffort,
				VirtualNow: s.exec.Engine().Now().Seconds(),
			}
		}
	}
	return Response{Error: fmt.Sprintf("serve: unknown job %q", m.ID), Code: CodeUnknownJob}
}

func (s *Server) statsResponse() Response {
	var as admission.Stats
	if ctrl := s.exec.Admission(); ctrl != nil {
		as = ctrl.Stats()
	}
	return Response{
		OK:         true,
		Jobs:       len(s.jobIndex),
		Terminal:   s.terminalCount(),
		VirtualNow: s.exec.Engine().Now().Seconds(),
		Report:     metrics.RenderOverload("serve", as, s.exec.Overload()),
	}
}

// dispatch forwards one message to the driver goroutine — for the
// server's own connections and a sharded router's in-process calls alike
// — and returns once the driver has replied or exited (a driver that
// exits without replying answers "draining"). It applies ingress
// backpressure: a full ring answers a typed "overloaded" refusal with a
// retry hint instead of blocking the caller — unbounded buffering just
// moves the queue somewhere invisible.
func (s *Server) dispatch(m Message) Response {
	r := request{msg: m, reply: make(chan Response, 1)}
	select {
	case s.reqCh <- r:
	case <-s.doneCh:
		return Response{Error: "serve: server draining", Code: CodeDraining}
	default:
		select {
		case <-s.doneCh:
			return Response{Error: "serve: server draining", Code: CodeDraining}
		default:
		}
		s.met.overloaded.Inc()
		return Response{
			Error:          fmt.Sprintf("serve: overloaded: ingress ring full (%d queued)", cap(s.reqCh)),
			Code:           CodeOverloaded,
			RetryAfterSecs: s.overloadRetryHint(),
		}
	}
	select {
	case resp := <-r.reply:
		return resp
	case <-s.doneCh:
		// The driver may have replied just before exiting.
		select {
		case resp := <-r.reply:
			return resp
		default:
			return Response{Error: "serve: server draining", Code: CodeDraining}
		}
	}
}

// overloadRetryHint sizes the "overloaded" reply's retry hint from the
// admission controller's view of the backlog: the base hint, scaled up
// by how far the live job set is over the controller's configured queue
// bound. A server whose arbitration queue is many multiples over bound
// needs more than one ring-drain of breathing room before a retry can
// possibly be admitted.
func (s *Server) overloadRetryHint() float64 {
	hint := overloadRetrySecs
	if ctrl := s.exec.Admission(); ctrl != nil {
		if bound := ctrl.Config().MaxQueueDepth; bound > 0 {
			if live := s.liveSize.Load(); live > int64(bound) {
				over := float64(live) / float64(bound)
				if over > 8 {
					over = 8
				}
				hint *= over
			}
		}
	}
	return hint
}
