// Package rotary is a from-scratch Go implementation of Rotary, the
// resource-arbitration framework for progressive iterative analytics
// (Liu, Elmore, Franklin, Krishnan — ICDE 2023), together with both of the
// paper's prototype systems:
//
//   - Rotary-AQP — arbitration of CPU hardware threads and memory across
//     multi-tenant approximate-query-processing jobs (online aggregation
//     over TPC-H, Algorithm 2), and
//   - Rotary-DLT — threshold-based arbitration of GPUs across deep
//     learning training jobs (Algorithms 3 and 4),
//
// plus every substrate they need: a TPC-H data generator with streaming
// implementations of all 22 queries, an online-aggregation engine, a deep
// learning training simulator with a 17-architecture model zoo, a
// discrete-event virtual clock, the §IV estimators (progress curves,
// envelope, TEE, TME, TTR), the historical-job repository, and all seven
// comparison baselines from the evaluation.
//
// This package is the public API: it re-exports the stable surface of the
// internal packages. The examples/ directory shows end-to-end use; the
// cmd/rotary-bench tool regenerates every table and figure in the paper.
//
// # Quick start
//
//	ds := rotary.GenerateTPCH(0.02, 1)             // scale factor, seed
//	cat := rotary.NewCatalog(ds, 1)
//	repo := rotary.NewRepository()
//	rotary.SeedAQPHistory(repo, cat, 500)
//	sched := rotary.NewRotaryAQP(rotary.NewAccuracyProgress(repo, 3))
//	exec := rotary.NewAQPExecutor(rotary.DefaultAQPExecConfig(4096), sched, repo)
//
//	cmd := "SELECT SUM(L_EXTENDEDPRICE) FROM LINEITEM ACC MIN 90% WITHIN 900 SECONDS"
//	_, crit, _ := rotary.ParseCriteria(cmd)
//	q, _ := cat.NewQuery("q6")
//	job, _ := rotary.NewAQPJob(rotary.AQPJobConfig{ID: "demo", Query: q, Criteria: crit})
//	exec.Submit(job, 0)
//	exec.Run()
package rotary

import (
	"rotary/internal/admission"
	"rotary/internal/aqp"
	"rotary/internal/baselines"
	"rotary/internal/cluster"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/diskio"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/hpo"
	"rotary/internal/metrics"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Completion criteria (§III-B, Fig. 3-4).
type (
	// Criteria is a parsed user-defined completion criterion.
	Criteria = criteria.Criteria
	// Deadline is a bound in wall time or epochs.
	Deadline = criteria.Deadline
	// CriteriaKind distinguishes accuracy-, convergence- and runtime-
	// oriented criteria.
	CriteriaKind = criteria.Kind
	// DeadlineUnit is seconds/minutes/hours/epochs.
	DeadlineUnit = criteria.Unit
)

// Criteria kinds and units.
const (
	AccuracyCriteria    = criteria.Accuracy
	ConvergenceCriteria = criteria.Convergence
	RuntimeCriteria     = criteria.Runtime
	Seconds             = criteria.Seconds
	Minutes             = criteria.Minutes
	Hours               = criteria.Hours
	Epochs              = criteria.Epochs
)

// Criteria constructors and the Fig. 4 clause parser.
var (
	// ParseCriteria splits "<cmd> ACC MIN 95% WITHIN 3600 SECONDS"-style
	// input into the raw command and the parsed criterion.
	ParseCriteria = criteria.Parse
	// NewAccuracyCriteria builds "<metric> MIN <threshold> WITHIN <d>".
	NewAccuracyCriteria = criteria.NewAccuracy
	// NewConvergenceCriteria builds "<metric> DELTA <delta> WITHIN <d>".
	NewConvergenceCriteria = criteria.NewConvergence
	// NewRuntimeCriteria builds "FOR <runtime>".
	NewRuntimeCriteria = criteria.NewRuntime
)

// Virtual time.
type (
	// Time is a point in virtual time (seconds since simulation start).
	Time = sim.Time
	// Engine is the discrete-event simulator driving an executor.
	Engine = sim.Engine
)

// TPC-H substrate.
type (
	// Dataset is a generated TPC-H database.
	Dataset = tpch.Dataset
	// Catalog binds a dataset to runnable online queries with cost and
	// memory metadata and cached ground truths.
	Catalog = tpch.Catalog
	// QueryClass is the Table I light/medium/heavy grouping.
	QueryClass = tpch.Class
)

// TPC-H constructors and helpers.
var (
	// GenerateTPCH builds a deterministic dataset at a scale factor.
	GenerateTPCH = tpch.Generate
	// NewCatalog indexes a dataset for query execution.
	NewCatalog = tpch.NewCatalog
	// TPCHQueries lists the 22 query names.
	TPCHQueries = tpch.AllQueries
	// QueriesOfClass filters the query names by Table I class.
	QueriesOfClass = tpch.QueriesOfClass
)

// Online-aggregation engine.
type (
	// OnlineQuery is a progressively executing query.
	OnlineQuery = aqp.OnlineQuery
	// Snapshot is a query's intermediate grouped aggregates.
	Snapshot = aqp.Snapshot
)

// DLT substrate.
type (
	// DLTConfig fully determines a simulated training job.
	DLTConfig = dlt.Config
	// Trainer is a running (or checkpointed) simulated training job.
	Trainer = dlt.Job
	// ModelSpec describes one architecture of the Table II zoo.
	ModelSpec = dlt.ModelSpec
)

// DLT helpers.
var (
	// NewTrainer builds a simulated training job.
	NewTrainer = dlt.NewJob
	// Models lists the model zoo.
	Models = dlt.Models
	// LookupModel returns an architecture's spec.
	LookupModel = dlt.Lookup
)

// Estimation (§IV): repository, progress estimator, TEE, TME.
type (
	// Repository stores historical job information for the estimators.
	Repository = estimate.Repository
	// TEE is the training-epoch estimator.
	TEE = estimate.TEE
	// TME is the training-memory estimator.
	TME = estimate.TME
	// ProgressEstimator predicts AQP accuracy progress at a future runtime.
	ProgressEstimator = estimate.ProgressEstimator
	// Envelope is the non-parametric convergence detector.
	Envelope = estimate.Envelope
)

// Estimator constructors.
var (
	// NewRepository returns an in-memory historical-job store.
	NewRepository = estimate.NewRepository
	// OpenRepository loads (or creates) a JSON-file-backed store.
	OpenRepository = estimate.OpenRepository
	// NewAccuracyProgress returns the §IV-A joint historical+real-time
	// progress estimator.
	NewAccuracyProgress = estimate.NewAccuracyProgress
	// NewTEE returns the training-epoch estimator.
	NewTEE = estimate.NewTEE
	// NewTME returns the training-memory estimator.
	NewTME = estimate.NewTME
	// NewEnvelope returns a convergence detector with the given window.
	NewEnvelope = estimate.NewEnvelope
)

// Core framework: jobs, policies, executors.
type (
	// AQPJob is an arbitrated progressive query.
	AQPJob = core.AQPJob
	// AQPJobConfig assembles an AQPJob.
	AQPJobConfig = core.AQPJobConfig
	// DLTJob is an arbitrated training job.
	DLTJob = core.DLTJob
	// AQPScheduler is the π : Q_t → assign(W, M) policy for AQP.
	AQPScheduler = core.AQPScheduler
	// DLTScheduler is the policy for DLT.
	DLTScheduler = core.DLTScheduler
	// RotaryAQPScheduler is Algorithm 2.
	RotaryAQPScheduler = core.RotaryAQP
	// RotaryDLTScheduler is Algorithm 3 (threshold T tunes fairness vs
	// efficiency).
	RotaryDLTScheduler = core.RotaryDLT
	// AQPExecutor drives an AQP workload over virtual time.
	AQPExecutor = core.AQPExecutor
	// AQPExecConfig sizes the AQP system (threads, memory, checkpointing).
	AQPExecConfig = core.AQPExecConfig
	// DLTExecutor drives a DLT workload over virtual time.
	DLTExecutor = core.DLTExecutor
	// DLTExecConfig sizes the GPU cluster.
	DLTExecConfig = core.DLTExecConfig
	// JobStatus is a job's live or terminal state.
	JobStatus = core.JobStatus
	// Placement is one contiguous device occupancy (Fig. 11 Gantt cell).
	Placement = core.Placement
	// CheckpointStore persists deferred jobs' state with a memory
	// materialization tier over disk spill (§VI).
	CheckpointStore = core.CheckpointStore
	// UnifiedExecutor arbitrates a mixed AQP + DLT workload on one clock
	// under a cluster-wide fairness threshold (§VI's unified framework).
	UnifiedExecutor = core.UnifiedExecutor
	// UnifiedExecConfig sizes the combined cluster.
	UnifiedExecConfig = core.UnifiedExecConfig
	// Tracer records an executor run's arbitration timeline.
	Tracer = core.Tracer
	// TraceEvent is one timestamped arbitration decision.
	TraceEvent = core.TraceEvent
	// TableStats summarizes one generated TPC-H table.
	TableStats = tpch.TableStats
	// ColumnStats summarizes one column.
	ColumnStats = tpch.ColumnStats
)

// Core constructors.
var (
	// NewAQPJob wraps an online query with a completion criterion.
	NewAQPJob = core.NewAQPJob
	// NewDLTJob wraps a trainer with a completion criterion.
	NewDLTJob = core.NewDLTJob
	// NewRotaryAQP returns the Algorithm 2 scheduler.
	NewRotaryAQP = core.NewRotaryAQP
	// NewRotaryDLT returns the Algorithm 3 scheduler with threshold T.
	NewRotaryDLT = core.NewRotaryDLT
	// NewAQPExecutor builds an AQP executor over a fresh pool.
	NewAQPExecutor = core.NewAQPExecutor
	// NewDLTExecutor builds a DLT executor over a fresh GPU cluster.
	NewDLTExecutor = core.NewDLTExecutor
	// DefaultAQPExecConfig mirrors the paper's 20-thread testbed.
	DefaultAQPExecConfig = core.DefaultAQPExecConfig
	// DefaultDLTExecConfig mirrors the paper's 4×8 GB GPU testbed.
	DefaultDLTExecConfig = core.DefaultDLTExecConfig
	// NewCheckpointStore creates a two-tier (memory + disk) state store.
	NewCheckpointStore = core.NewCheckpointStore
	// NewUnifiedExecutor builds the §VI unified AQP+DLT system.
	NewUnifiedExecutor = core.NewUnifiedExecutor
)

// Fault injection and crash recovery (chaos testing).
type (
	// FaultInjector draws deterministic, seed-reproducible fault events
	// (crashes, transient/corrupting/slow checkpoint I/O) for the
	// executors to react to.
	FaultInjector = faults.Injector
	// FaultConfig sets the per-opportunity fault probabilities and seed.
	FaultConfig = faults.Config
	// FaultStats counts the faults an injector has dealt.
	FaultStats = faults.Stats
	// RecoveryStats counts an executor's crashes, rollbacks, scratch
	// restarts, wasted work and recovery latency.
	RecoveryStats = core.RecoveryStats
	// StoreHealth exposes a checkpoint store's I/O-fault counters.
	StoreHealth = core.StoreHealth
)

// Fault-injection constructors and helpers.
var (
	// NewFaultInjector builds an injector from a FaultConfig.
	NewFaultInjector = faults.New
	// UniformFaults spreads a total fault rate across every fault kind.
	UniformFaults = faults.Uniform
	// RecoverableFaults is UniformFaults minus checkpoint corruption, so
	// every injected fault is recoverable by checkpoint rollback.
	RecoverableFaults = faults.Recoverable
	// RenderRecovery renders an executor's fault-recovery report.
	RenderRecovery = metrics.RenderRecovery
)

// Checkpoint-store error classes.
var (
	// ErrCheckpointNotFound: no checkpoint stored under the id.
	ErrCheckpointNotFound = core.ErrNotFound
	// ErrCheckpointCorrupt: stored bytes failed frame or checksum
	// validation and were never deserialized.
	ErrCheckpointCorrupt = core.ErrCorrupt
	// ErrCheckpointTransient: I/O kept failing past the retry budget.
	ErrCheckpointTransient = core.ErrTransient
)

// Job statuses.
const (
	StatusPending       = core.StatusPending
	StatusRunning       = core.StatusRunning
	StatusAttainedStop  = core.StatusAttainedStop
	StatusConvergedStop = core.StatusConvergedStop
	StatusExpired       = core.StatusExpired
)

// Baselines from the evaluation.
type (
	// RoundRobinAQP, EDFAQP, LAFAQP and ReLAQS are the Fig. 6 baselines.
	RoundRobinAQP = baselines.RoundRobinAQP
	// EDFAQP prioritizes the earliest deadline.
	EDFAQP = baselines.EDFAQP
	// LAFAQP prioritizes the least accuracy.
	LAFAQP = baselines.LAFAQP
	// ReLAQS re-implements the state-of-the-art comparison system.
	ReLAQS = baselines.ReLAQS
	// SRF, BCF and LAFDLT are the Fig. 10 baselines.
	SRF = baselines.SRF
	// BCF prioritizes the biggest convergence criteria.
	BCF = baselines.BCF
	// LAFDLT prioritizes the lowest accuracy criteria.
	LAFDLT = baselines.LAFDLT
)

// Workload synthesis (Tables I and II).
type (
	// AQPSpec is one synthesized Table I job.
	AQPSpec = workload.AQPSpec
	// AQPWorkloadConfig parameterizes Table I generation.
	AQPWorkloadConfig = workload.AQPWorkloadConfig
	// DLTSpec is one synthesized Table II job.
	DLTSpec = workload.DLTSpec
	// DLTWorkloadConfig parameterizes Table II generation.
	DLTWorkloadConfig = workload.DLTWorkloadConfig
)

// Workload helpers.
var (
	// DefaultAQPWorkload is the Table I configuration.
	DefaultAQPWorkload = workload.DefaultAQPWorkload
	// GenerateAQPWorkload samples a Table I workload.
	GenerateAQPWorkload = workload.GenerateAQP
	// BuildAQPJob binds a spec to a catalog.
	BuildAQPJob = workload.BuildAQPJob
	// DefaultDLTWorkload is the Table II configuration.
	DefaultDLTWorkload = workload.DefaultDLTWorkload
	// GenerateDLTWorkload samples a Table II workload.
	GenerateDLTWorkload = workload.GenerateDLT
	// BuildDLTJob turns a spec into a runnable job.
	BuildDLTJob = workload.BuildDLTJob
	// SeedAQPHistory populates a repository with standalone query runs.
	SeedAQPHistory = workload.SeedAQPHistory
	// SeedDLTHistory populates a repository with completed training runs.
	SeedDLTHistory = workload.SeedDLTHistory
	// DefaultAQPMemoryMB sizes a contended pool for a catalog.
	DefaultAQPMemoryMB = workload.DefaultAQPMemoryMB
	// RecommendedBatchRows sizes per-step batches scale-invariantly.
	RecommendedBatchRows = workload.RecommendedBatchRows
	// SaveAQPSpecs / LoadAQPSpecs persist an AQP workload as JSON.
	SaveAQPSpecs = workload.SaveAQPSpecs
	// LoadAQPSpecs reads a saved AQP workload.
	LoadAQPSpecs = workload.LoadAQPSpecs
	// SaveDLTSpecs persists a DLT workload as JSON.
	SaveDLTSpecs = workload.SaveDLTSpecs
	// LoadDLTSpecs reads a saved DLT workload.
	LoadDLTSpecs = workload.LoadDLTSpecs
)

// Metrics.
type (
	// AQPReport aggregates one policy run (attainment, false attainment,
	// waiting time).
	AQPReport = metrics.AQPReport
	// DLTSnapshot is a workload's progress distribution at one time.
	DLTSnapshot = metrics.DLTSnapshot
	// Violin is the five-number summary behind one Fig. 10 violin.
	Violin = metrics.Violin
	// ChartSeries is one named line of a plain-text chart.
	ChartSeries = metrics.Series
	// ChartXY is one plotted point.
	ChartXY = metrics.XY
)

// Metric helpers.
var (
	// AnalyzeAQP derives a report from terminal jobs.
	AnalyzeAQP = metrics.AnalyzeAQP
	// SnapshotDLT computes Fig. 10-style progress snapshots.
	SnapshotDLT = metrics.SnapshotDLT
	// DLTProgressAt computes one job's §V-B attainment progress at a time.
	DLTProgressAt = metrics.DLTProgressAt
	// RenderGantt renders Fig. 11-style placements.
	RenderGantt = metrics.RenderGantt
	// RenderLineChart plots named series as a plain-text chart.
	RenderLineChart = metrics.RenderLineChart
)

// Hyperparameter optimization (the introduction's motivating scenario,
// built on the framework).
type (
	// HPOConfig parameterizes a successive-halving search.
	HPOConfig = hpo.Config
	// HPOResult summarizes a finished search.
	HPOResult = hpo.Result
	// HPOTrial is one configuration under evaluation.
	HPOTrial = hpo.Trial
)

// HPO helpers.
var (
	// HPOSearch runs successive halving over trial configurations on the
	// simulated cluster under efficiency Rotary-DLT.
	HPOSearch = hpo.Search
	// DefaultHPOConfig is a 1-epoch-rung, eta-3 search on 4 GPUs.
	DefaultHPOConfig = hpo.DefaultConfig
)

// Resources.
type (
	// GPU is one accelerator device.
	GPU = cluster.GPU
	// GPUCluster is the Rotary-DLT resource substrate.
	GPUCluster = cluster.GPUCluster
	// CPUPool is the Rotary-AQP resource substrate.
	CPUPool = cluster.CPUPool
)

// Overload protection: admission control, bounded queues, shedding, and
// the epoch watchdog (see DESIGN.md §8).
type (
	// AdmissionController gates arriving jobs on deadline feasibility and
	// a bounded wait queue, applying a backpressure Policy at the bound.
	AdmissionController = admission.Controller
	// AdmissionConfig parameterizes an AdmissionController.
	AdmissionConfig = admission.Config
	// AdmissionPolicy selects the backpressure response at the bound:
	// reject, shed the lowest-value queued job, or degrade to best-effort.
	AdmissionPolicy = admission.Policy
	// AdmissionStats counts an admission controller's verdicts.
	AdmissionStats = admission.Stats
	// OverloadStats counts an executor's overload-protection events
	// (watchdog preemptions, sheds, rejections, forced grants).
	OverloadStats = core.OverloadStats
	// StarvationGuardAQP wraps any AQP policy with aging so every
	// admitted job is eventually granted (AQPExecConfig.AgingRounds
	// installs it automatically).
	StarvationGuardAQP = core.StarvationGuardAQP
	// StarvationGuardDLT is the DLT-side aging wrapper.
	StarvationGuardDLT = core.StarvationGuardDLT
)

// Overload-protection constructors, policies, and errors.
var (
	// NewAdmissionController builds a controller from an AdmissionConfig.
	NewAdmissionController = admission.NewController
	// ParseAdmissionPolicy parses "reject", "shed", or "degrade".
	ParseAdmissionPolicy = admission.ParsePolicy
	// NewStarvationGuardAQP and NewStarvationGuardDLT wrap a policy with
	// aging explicitly (executors install them via AgingRounds).
	NewStarvationGuardAQP = core.NewStarvationGuardAQP
	NewStarvationGuardDLT = core.NewStarvationGuardDLT
	// RenderOverload renders an executor's overload-protection report.
	RenderOverload = metrics.RenderOverload
	// ErrAdmissionRejected: estimated completion cannot meet the deadline.
	ErrAdmissionRejected = admission.ErrAdmissionRejected
	// ErrQueueFull: the wait queue is at its configured bound.
	ErrQueueFull = admission.ErrQueueFull
)

// Backpressure policies at the admission bound.
const (
	// AdmitReject refuses the arrival outright.
	AdmitReject = admission.Reject
	// AdmitShedLowestValue evicts the lowest-value queued job instead,
	// when one exists with lower value than the arrival.
	AdmitShedLowestValue = admission.ShedLowestValue
	// AdmitDegradeBestEffort admits the arrival without its deadline
	// guarantee.
	AdmitDegradeBestEffort = admission.DegradeBestEffort
)

// Terminal statuses introduced by overload protection.
const (
	// StatusRejected: refused at the admission gate.
	StatusRejected = core.StatusRejected
	// StatusShed: evicted from the queue to admit a higher-value arrival.
	StatusShed = core.StatusShed
)

// Multi-tenant isolation: per-tenant quotas at the admission gate and
// weighted fair-share arbitration (see DESIGN.md §13).
type (
	// TenantQuota is one tenant's admission limits and fair-share weight.
	TenantQuota = admission.TenantQuota
	// TenantTable maps tenant names to quotas, with a default for
	// unlisted tenants.
	TenantTable = admission.TenantTable
	// TenantStats counts one tenant's admission ledger: submissions,
	// verdicts by refusal reason, releases, and live jobs.
	TenantStats = admission.TenantStats
	// FairShareAQP wraps any AQP policy with DRF-style weighted fair
	// division of threads and memory among active tenants.
	FairShareAQP = core.FairShareAQP
	// FairShareDLT is the DLT-side twin over GPU devices.
	FairShareDLT = core.FairShareDLT
)

// Multi-tenant constructors and errors.
var (
	// ParseTenantSpec parses the -tenants flag syntax, e.g.
	// "alpha:weight=2,rate=0.5,burst=4;default:rate=1,burst=4".
	ParseTenantSpec = admission.ParseTenantSpec
	// NewFairShareAQP and NewFairShareDLT wrap a policy with weighted
	// fair-share arbitration over the given tenant weights.
	NewFairShareAQP = core.NewFairShareAQP
	NewFairShareDLT = core.NewFairShareDLT
	// ErrTenantQuotaExceeded: the tenant's submit-rate token bucket is
	// empty or its concurrent-job cap is reached.
	ErrTenantQuotaExceeded = admission.ErrTenantQuotaExceeded
	// ErrTenantQueueFull: the tenant's queue-depth cap is reached.
	ErrTenantQueueFull = admission.ErrTenantQueueFull
)

// DefaultTenant is the tenant unattributed work accounts to.
const DefaultTenant = admission.DefaultTenant

// Live serving mode (cmd/rotary-serve): a long-lived arbiter over a Unix
// socket speaking one JSON object per line, pacing the virtual clock
// against wall-clock time, with graceful drain.
type (
	// Server is the serving-mode daemon around an AQPExecutor.
	Server = serve.Server
	// ServeConfig sets the socket path, wall-clock pace, and batch size.
	ServeConfig = serve.Config
	// ServeMessage is one client request line.
	ServeMessage = serve.Message
	// ServeResponse is one reply line.
	ServeResponse = serve.Response
)

// NewServer validates the executor configuration and builds a serving-
// mode daemon; Serve listens until a drain request or signal.
var NewServer = serve.New

// Arbiter durability (PR 6): the write-ahead journal that makes the
// serving daemon crash-recoverable, and the reconnecting client that
// rides across its restarts.
type (
	// ServeJournal is the arbiter's write-ahead log: every serve-state
	// transition fsynced before the client sees the reply, with
	// size-triggered compaction and longest-valid-prefix corruption
	// recovery.
	ServeJournal = serve.Journal
	// ServeJournalRecord is one journal entry.
	ServeJournalRecord = serve.Record
	// ServeRecovered is the durable state replayed from a journal at open.
	ServeRecovered = serve.Recovered
	// ServeClient is the reconnect-with-backoff protocol client; its
	// resume handshake detects daemon restarts by server epoch.
	ServeClient = serve.Client
	// ServeClientConfig sets the client's socket and backoff envelope.
	ServeClientConfig = serve.ClientConfig
)

// Sharded serving (PR 7): a router fronting N supervised durable shard
// workers, with consistent-hash routing, typed shard-unavailable
// degradation while a crashed shard restarts from its journal, and
// checkpoint-carried live migration between shards.
type (
	// ServeRouter is the sharded daemon's front end: same JSON-line
	// protocol as a single Server, plus the shards/migrate/retire ops.
	ServeRouter = serve.Router
	// ServeRouterConfig sets the shard count, durable-state root, shard
	// builder, and supervision cadence.
	ServeRouterConfig = serve.RouterConfig
	// ServeShardBuilder constructs one shard's executor stack at boot and
	// on every supervised restart.
	ServeShardBuilder = serve.ShardBuilder
	// ServeShardState is a shard's supervision state (running, down,
	// restarting, retired).
	ServeShardState = serve.ShardState
	// ServeShardInfo is one shard's row in the router's supervision
	// report.
	ServeShardInfo = serve.ShardInfo
)

var (
	// OpenServeJournal opens (and replays) a write-ahead journal directory.
	OpenServeJournal = serve.OpenJournal
	// OpenDurableServe opens the durability pair — journal plus a
	// disk-only checkpoint store retaining journal-referenced checkpoints
	// across restarts.
	OpenDurableServe = serve.OpenDurable
	// NewServeClient builds the reconnecting client.
	NewServeClient = serve.NewClient
	// NewServeRouter builds the sharded daemon front end.
	NewServeRouter = serve.NewRouter
	// ErrServeTimeout is wrapped into client errors caused by a request
	// exceeding its deadline, for errors.Is branching.
	ErrServeTimeout = serve.ErrTimeout
	// NewCheckpointStoreRetaining creates a checkpoint store whose
	// stale-file sweep spares ids accepted by the retain predicate.
	NewCheckpointStoreRetaining = core.NewCheckpointStoreRetaining
)

// Heavy-traffic front end (PR 10): multi-listener serving (TCP
// alongside the Unix socket), per-connection codec negotiation, the
// bounded ingress ring feeding the batched driver, and journal group
// commit — one fsync covers every record an ingress batch staged,
// with no reply released before the group is durable.
const (
	// ServeCodecJSON is the line-oriented JSON wire format (default).
	ServeCodecJSON = serve.CodecJSON
	// ServeCodecBinary is the length-prefixed binary frame format.
	ServeCodecBinary = serve.CodecBinary
	// ServeCodeOverloaded is the typed refusal a full ingress ring
	// returns; the reply carries a retry_after_secs backoff hint.
	ServeCodeOverloaded = serve.CodeOverloaded
)

// Observability: the always-on metrics registry and streaming trace
// sinks behind every executor, plus the debug HTTP listener.
type (
	// MetricsRegistry holds a process's (or one run's) counters, gauges,
	// and histograms; render with its RenderText method.
	MetricsRegistry = obs.Registry
	// TraceSink receives every trace event as it is emitted.
	TraceSink = obs.TraceSink
	// TraceRecord is the sink-side form of one trace event.
	TraceRecord = obs.TraceRecord
	// JSONLSink streams trace records as JSON lines with buffered flush.
	JSONLSink = obs.JSONLSink
	// DebugServer is the background HTTP listener serving /metrics and
	// net/http/pprof.
	DebugServer = obs.DebugServer
)

var (
	// NewMetricsRegistry creates a private registry, isolating one run's
	// telemetry from the process-wide default.
	NewMetricsRegistry = obs.NewRegistry
	// DefaultMetrics is the process-wide registry executors fall back to.
	DefaultMetrics = obs.Default
	// NewTracer builds a bounded trace ring holding the newest capacity
	// events (0 = unbounded).
	NewTracer = core.NewTracer
	// SetDefaultTracer installs the tracer executors adopt when their
	// config carries none; call before building executors.
	SetDefaultTracer = core.SetDefaultTracer
	// NewJSONLSink wraps a writer; OpenJSONLSink creates the file.
	NewJSONLSink  = obs.NewJSONLSink
	OpenJSONLSink = obs.OpenJSONLSink
	// StartMetricsDebug serves /metrics and pprof on addr until Close
	// (nil registry means the process-wide default).
	StartMetricsDebug = obs.StartDebug
)

// Self-healing durability (PR 11): the pluggable disk layer under the
// journal and checkpoint writers, the recoverable journal-degraded
// mode (typed refusals with retry hints, heal by rolling to a fresh
// verified segment), and the read-only journal audit behind the
// composed-fault torture harness (`rotary-chaos`; internal/torture is
// not re-exported — it drives loadgen, which benchmarks this package,
// and would close an import cycle).
type (
	// DiskIO is the pluggable filesystem layer the journal and
	// checkpoint store write through; DiskOS is the passthrough
	// implementation over the real os package.
	DiskIO = diskio.IO
	DiskOS = diskio.OS
	// FaultyDisk wraps a DiskIO with seeded, deterministic fault
	// injection (ENOSPC/EIO write and sync failures, slow fsyncs),
	// plus scripted ForceFail/Clear control for tests.
	FaultyDisk = diskio.Faulty
	// DiskFaultConfig parameterizes the seeded injector.
	DiskFaultConfig = diskio.FaultConfig
	// DiskInjectedError is the typed error injected faults unwrap to.
	DiskInjectedError = diskio.InjectedError
)

const (
	// ServeCodeJournalDegraded is the typed refusal a server emits for
	// mutating ops while its journal is degraded but healable; the
	// reply carries a retry_after_secs hint and clients retry it under
	// RetryHinted.
	ServeCodeJournalDegraded = serve.CodeJournalDegraded
)

var (
	// NewFaultyDisk builds the seeded fault injector over an inner
	// layer (nil means the real filesystem).
	NewFaultyDisk = diskio.NewFaulty
	// OpenDurableServeIO / OpenServeJournalIO are the durability
	// constructors over a pluggable disk layer (nil selects DiskOS).
	OpenDurableServeIO = serve.OpenDurableIO
	OpenServeJournalIO = serve.OpenJournalIO
	// ReplayServeJournal audits a journal chain read-only — no
	// truncation, no epoch bump — for invariant checking.
	ReplayServeJournal = serve.ReplayJournal
	// NewCheckpointStoreIO is the checkpoint store over a pluggable
	// disk layer.
	NewCheckpointStoreIO = core.NewCheckpointStoreIO
)
