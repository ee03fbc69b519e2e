package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"rotary/internal/aqp"
	"rotary/internal/cluster"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// This file is the arbiter microbenchmark harness behind
// `rotary-bench -experiment arbiter`: it measures the REAL (wall-clock)
// cost of one arbitration decision — Algorithm 1's per-epoch policy
// invocation — over synthetic queues of 100/1k/10k jobs, for every AQP
// policy and the DLT path, with the fast path off and on. Reports
// serialize as the repo's committed BENCH_<n>.json artifacts and CI
// compares a fresh run against the baseline with a tolerance band
// (CompareArbBench). ns/op is normalized across machines through a
// calibration workload; allocs/op is machine-independent and compared
// raw.

// ArbBenchAQPPolicy names an AQP policy under benchmark. Build receives
// the seeded history repository so estimator-backed policies
// (rotary-aqp) attach to it; the constructor indirection keeps
// internal/core free of a baselines import cycle.
type ArbBenchAQPPolicy struct {
	Name  string
	Build func(repo *estimate.Repository) AQPScheduler
}

// ArbBenchDLTPolicy names a DLT policy under benchmark.
type ArbBenchDLTPolicy struct {
	Name  string
	Build func(repo *estimate.Repository) DLTScheduler
}

// ArbBenchConfig parameterizes an arbiter benchmark run.
type ArbBenchConfig struct {
	// QueueSizes are the pending-queue depths measured; empty defaults
	// to 100, 1000, 10000.
	QueueSizes []int
	// Seed drives the deterministic queue synthesis. Zero defaults to 42.
	Seed uint64
	// HistoryRecords sizes the synthetic estimation repository. Zero
	// defaults to 64.
	HistoryRecords int
	// AQP and DLT are the policies to measure.
	AQP []ArbBenchAQPPolicy
	DLT []ArbBenchDLTPolicy
	// Log, when set, receives one progress line per completed case.
	Log func(format string, args ...any)
}

// ArbBenchCase is one measured (path, policy, depth, fast-path) cell.
type ArbBenchCase struct {
	Path     string `json:"path"`   // "aqp" or "dlt"
	Policy   string `json:"policy"` // scheduler name
	Queued   int    `json:"queued"` // pending-queue depth
	FastPath bool   `json:"fast_path"`

	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// GrantsPerOp is the mean grants (placements) issued per decision;
	// DecisionsPerSec and GrantsPerSec are the derived throughputs.
	GrantsPerOp     float64 `json:"grants_per_op"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	GrantsPerSec    float64 `json:"grants_per_sec"`
	// EpochVirtualSecs is the queue's mean next-epoch virtual cost;
	// OverheadFrac = (NsPerOp/1e9) / EpochVirtualSecs is the acceptance
	// criterion's "arbiter overhead as a fraction of epoch cost".
	EpochVirtualSecs float64 `json:"epoch_virtual_secs"`
	OverheadFrac     float64 `json:"overhead_frac"`

	FastPathHits   uint64 `json:"fast_path_hits,omitempty"`
	FastPathMisses uint64 `json:"fast_path_misses,omitempty"`

	// CalibrationNs is the calibration workload's cost measured
	// immediately before this cell. Interference on a shared runner is
	// time-varying, so a run-level calibration taken at startup can miss
	// load that arrives mid-matrix; comparisons prefer the cell-adjacent
	// number when both reports carry one.
	CalibrationNs float64 `json:"calibration_ns,omitempty"`
}

// ArbBenchReport is the BENCH_<n>.json artifact.
type ArbBenchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// CalibrationNs is the measured cost of a fixed CPU-bound hashing
	// workload on this machine; cross-machine ns/op comparisons scale by
	// the calibration ratio.
	CalibrationNs float64        `json:"calibration_ns"`
	Cases         []ArbBenchCase `json:"cases"`
}

// arbBenchSchema versions the artifact format.
const arbBenchSchema = "rotary-arbbench/1"

// RunArbiterBench measures every configured (policy, depth, fast-path)
// cell and assembles the report.
func RunArbiterBench(cfg ArbBenchConfig) (*ArbBenchReport, error) {
	if len(cfg.QueueSizes) == 0 {
		cfg.QueueSizes = []int{100, 1000, 10000}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.HistoryRecords == 0 {
		cfg.HistoryRecords = 64
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &ArbBenchReport{
		Schema:        arbBenchSchema,
		GoVersion:     runtime.Version(),
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		CalibrationNs: arbBenchCalibrate(),
	}
	for _, depth := range cfg.QueueSizes {
		if len(cfg.AQP) > 0 {
			repo := synthAQPRepo(cfg.HistoryRecords, cfg.Seed)
			jobs := synthAQPQueue(depth, cfg.Seed)
			for _, pol := range cfg.AQP {
				for _, fastOn := range []bool{false, true} {
					c := benchAQPCase(pol.Build(repo), jobs, depth, fastOn)
					rep.Cases = append(rep.Cases, c)
					logf("%s", renderArbCase(c))
				}
			}
		}
		if len(cfg.DLT) > 0 {
			repo := synthDLTRepo(cfg.HistoryRecords, cfg.Seed)
			jobs, err := synthDLTQueue(depth, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("core: arbiter bench DLT synthesis: %w", err)
			}
			for _, pol := range cfg.DLT {
				for _, fastOn := range []bool{false, true} {
					c := benchDLTCase(pol.Build(repo), jobs, depth, fastOn)
					rep.Cases = append(rep.Cases, c)
					logf("%s", renderArbCase(c))
				}
			}
		}
	}
	return rep, nil
}

// benchAQPCase measures one AQP policy over a fixed queue snapshot. The
// context is frozen (constant Now, full capacity) so repeated decisions
// are identical — which is exactly what makes the fast-path-on cell
// measure the replay (hit) cost.
func benchAQPCase(sched AQPScheduler, jobs []*AQPJob, depth int, fastOn bool) ArbBenchCase {
	ctx := &AQPContext{
		Now:          sim.Time(1000),
		Pending:      jobs,
		FreeThreads:  20,
		TotalThreads: 20,
		FreeMemMB:    1 << 20,
		TotalMemMB:   1 << 20,
	}
	var fast *aqpFastPath
	if fastOn {
		fast = newAQPFastPath(sched)
	}
	cal := arbBenchCalibrate()
	var grants uint64
	var ops uint64
	res := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var g []AQPGrant
			if fast != nil {
				g = fast.assign(ctx)
			} else {
				g = sched.Assign(ctx)
			}
			grants += uint64(len(g))
			ops++
		}
	})
	c := arbCaseFrom("aqp", sched.Name(), depth, fastOn, res, grants, ops)
	c.CalibrationNs = cal
	c.EpochVirtualSecs = meanNextEpochSecsAQP(jobs)
	if c.EpochVirtualSecs > 0 {
		c.OverheadFrac = c.NsPerOp / 1e9 / c.EpochVirtualSecs
	}
	if fast != nil {
		c.FastPathHits = fast.stats.Hits
		c.FastPathMisses = fast.stats.Misses
	}
	return c
}

// benchDLTCase measures one DLT policy over a fixed queue snapshot with
// the paper's 4 × 8 GB device fleet free.
func benchDLTCase(sched DLTScheduler, jobs []*DLTJob, depth int, fastOn bool) ArbBenchCase {
	free := make([]cluster.GPU, 4)
	for i := range free {
		free[i] = cluster.GPU{ID: i, MemMB: 8192}
	}
	ctx := &DLTContext{
		Now:      sim.Time(1000),
		Pending:  jobs,
		FreeGPUs: free,
	}
	var fast *dltFastPath
	if fastOn {
		fast = newDLTFastPath(sched)
	}
	cal := arbBenchCalibrate()
	var placements uint64
	var ops uint64
	res := benchBest(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var p []DLTPlacement
			if fast != nil {
				p = fast.place(ctx)
			} else {
				p = sched.Place(ctx)
			}
			placements += uint64(len(p))
			ops++
		}
	})
	c := arbCaseFrom("dlt", sched.Name(), depth, fastOn, res, placements, ops)
	c.CalibrationNs = cal
	c.EpochVirtualSecs = meanNextEpochSecsDLT(jobs)
	if c.EpochVirtualSecs > 0 {
		c.OverheadFrac = c.NsPerOp / 1e9 / c.EpochVirtualSecs
	}
	if fast != nil {
		c.FastPathHits = fast.stats.Hits
		c.FastPathMisses = fast.stats.Misses
	}
	return c
}

func arbCaseFrom(path, policy string, depth int, fastOn bool, res testing.BenchmarkResult, grants, ops uint64) ArbBenchCase {
	c := ArbBenchCase{
		Path:        path,
		Policy:      policy,
		Queued:      depth,
		FastPath:    fastOn,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if ops > 0 {
		c.GrantsPerOp = float64(grants) / float64(ops)
	}
	if c.NsPerOp > 0 {
		c.DecisionsPerSec = 1e9 / c.NsPerOp
		c.GrantsPerSec = c.GrantsPerOp * c.DecisionsPerSec
	}
	return c
}

func meanNextEpochSecsAQP(jobs []*AQPJob) float64 {
	if len(jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range jobs {
		sum += j.nextEpochSecsGuess()
	}
	return sum / float64(len(jobs))
}

func meanNextEpochSecsDLT(jobs []*DLTJob) float64 {
	if len(jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range jobs {
		sum += j.nextEpochSecsGuess()
	}
	return sum / float64(len(jobs))
}

// arbBenchSink defeats dead-code elimination in the calibration loop.
var arbBenchSink uint64

// arbBenchCalibrateBytes sizes the calibration working set. It must
// exceed the last-level cache: the arbitration cells walk queues of
// thousands of heap-allocated jobs, so their dominant sensitivity —
// both across machines and under noisy neighbors — is memory traffic,
// not ALU speed. A cache-resident spin stays flat while an alloc-heavy
// cell slows 20% under bandwidth contention, which would misread as a
// regression; a streaming workload slows with it.
const arbBenchCalibrateBytes = 16 << 20

// arbBenchCalibrate measures a fixed memory-streaming hash workload;
// the ratio between two calibration numbers approximates the ratio of
// effective single-thread memory throughput, which CompareArbBench
// uses to normalize ns/op across machines and across load.
func arbBenchCalibrate() float64 {
	buf := make([]uint64, arbBenchCalibrateBytes/8)
	for i := range buf {
		buf[i] = uint64(i)*fpPrime + fpInit
	}
	res := benchBest(func(b *testing.B) {
		h := fpInit
		for i := 0; i < b.N; i++ {
			for _, v := range buf {
				h ^= v
				h *= fpPrime
			}
		}
		arbBenchSink = h
	})
	return float64(res.NsPerOp())
}

// arbBenchRuns is how many times each cell is measured; the fastest run
// is kept. Interference noise on shared (CI) runners is one-sided — it
// only ever slows a run down — so min-of-N converges on the true cost
// far faster than one long run, keeping the regression bands tight
// without flaking.
const arbBenchRuns = 3

// benchBest runs fn arbBenchRuns times and returns the result with the
// lowest ns/op.
func benchBest(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < arbBenchRuns; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// arbCaseKey identifies a case across reports.
func arbCaseKey(c ArbBenchCase) string {
	return fmt.Sprintf("%s/%s/q%d/fast=%v", c.Path, c.Policy, c.Queued, c.FastPath)
}

// CompareArbBench checks cur against base: every baseline case must be
// present, within nsTol of the (calibration-normalized) baseline ns/op,
// and within allocTol of the baseline allocs/op. It returns one message
// per violation; empty means no regression.
func CompareArbBench(base, cur *ArbBenchReport, nsTol, allocTol float64) []string {
	runScale := 1.0
	if base.CalibrationNs > 0 && cur.CalibrationNs > 0 {
		runScale = cur.CalibrationNs / base.CalibrationNs
	}
	index := make(map[string]ArbBenchCase, len(cur.Cases))
	for _, c := range cur.Cases {
		index[arbCaseKey(c)] = c
	}
	var fails []string
	for _, b := range base.Cases {
		key := arbCaseKey(b)
		c, ok := index[key]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: missing from current report", key))
			continue
		}
		// Prefer the cell-adjacent calibration pair: it tracks load that
		// arrived mid-matrix, which the run-level number (measured once at
		// startup) cannot see.
		scale := runScale
		if b.CalibrationNs > 0 && c.CalibrationNs > 0 {
			scale = c.CalibrationNs / b.CalibrationNs
		}
		if limit := b.NsPerOp * scale * (1 + nsTol); c.NsPerOp > limit {
			fails = append(fails, fmt.Sprintf("%s: ns/op %.0f > limit %.0f (baseline %.0f × scale %.2f × %.0f%% band)",
				key, c.NsPerOp, limit, b.NsPerOp, scale, 100*(1+nsTol)))
		}
		allocLimit := float64(b.AllocsPerOp) * (1 + allocTol)
		if float64(c.AllocsPerOp) > allocLimit {
			fails = append(fails, fmt.Sprintf("%s: allocs/op %d > limit %.1f (baseline %d + %.0f%% band)",
				key, c.AllocsPerOp, allocLimit, b.AllocsPerOp, 100*allocTol))
		}
	}
	return fails
}

// MergeArbBenchMin folds two measurements of the same matrix into one
// report keeping, per cell, the run with the lower ns/op. Interference
// noise is strictly additive, so the faster observation of a cell is
// always the closer estimate of its true cost; gates retry a failed
// comparison through this merge so only reproducible slowdowns fail.
// Cells present in only one report are kept as measured.
func MergeArbBenchMin(a, b *ArbBenchReport) *ArbBenchReport {
	out := *a
	out.Cases = append([]ArbBenchCase(nil), a.Cases...)
	index := make(map[string]int, len(out.Cases))
	for i, c := range out.Cases {
		index[arbCaseKey(c)] = i
	}
	for _, c := range b.Cases {
		if i, ok := index[arbCaseKey(c)]; !ok {
			out.Cases = append(out.Cases, c)
		} else if c.NsPerOp < out.Cases[i].NsPerOp {
			out.Cases[i] = c
		}
	}
	return &out
}

// renderArbCase formats one case as a fixed-width line.
func renderArbCase(c ArbBenchCase) string {
	fp := "off"
	if c.FastPath {
		fp = "on"
	}
	return fmt.Sprintf("%-4s %-22s q=%-6d fast=%-3s %12.0f ns/op %8d allocs/op %10.0f dec/s %10.0f grants/s overhead=%.5f%%",
		c.Path, c.Policy, c.Queued, fp, c.NsPerOp, c.AllocsPerOp, c.DecisionsPerSec, c.GrantsPerSec, 100*c.OverheadFrac)
}

// Render formats the report as a plain-text table.
func (r *ArbBenchReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "arbiter bench  %s %s/%s  cpus=%d  calibration=%.0fns\n",
		r.GoVersion, r.GoOS, r.GoArch, r.NumCPU, r.CalibrationNs)
	for _, c := range r.Cases {
		b.WriteString(renderArbCase(c))
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Deterministic queue synthesis
// ---------------------------------------------------------------------

// benchSplitmix is a splitmix64 step — the harness's only randomness,
// fully determined by the seed.
func benchSplitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// benchQuery is a deterministic synthetic OnlineQuery: cheap fixed-cost
// batches over a finite row stream, with snapshot values that move with
// data progress so envelopes and growth trackers see realistic series.
type benchQuery struct {
	name       string
	totalRows  int64
	processed  int64
	costPerRow float64
	specs      []aqp.AggSpec
	salt       uint64
}

// Name implements aqp.OnlineQuery.
func (q *benchQuery) Name() string { return q.name }

// ProcessBatch implements aqp.OnlineQuery.
func (q *benchQuery) ProcessBatch(batchRows, threads int) (int, float64) {
	n := max(0, min(int64(batchRows), q.totalRows-q.processed))
	cost := q.EpochCost(batchRows, 1, threads)
	q.processed += n
	return int(n), cost
}

// EpochCost implements aqp.OnlineQuery.
func (q *benchQuery) EpochCost(batchRows, batches, threads int) float64 {
	var cost float64
	for left := q.totalRows - q.processed; batches > 0 && batchRows > 0 && left > 0; batches-- {
		n := min(int64(batchRows), left)
		cost += float64(n) * q.costPerRow / aqp.Speedup(threads)
		left -= n
	}
	return cost
}

// Exhausted implements aqp.OnlineQuery.
func (q *benchQuery) Exhausted() bool { return q.processed >= q.totalRows }

// Snapshot implements aqp.OnlineQuery.
func (q *benchQuery) Snapshot() aqp.Snapshot {
	f := q.DataProgress()
	return aqp.Snapshot{
		Specs: q.specs,
		Groups: map[string][]float64{
			"g0": {12000 * f, 900 * f},
			"g1": {8000 * f * f * (1 + 0.1*math.Sin(float64(q.salt%97))), 600 * f},
		},
	}
}

// Accuracy implements aqp.OnlineQuery (ground truth ≈ data progress for
// the synthetic stream).
func (q *benchQuery) Accuracy() float64 { return q.DataProgress() }

// DataProgress implements aqp.OnlineQuery.
func (q *benchQuery) DataProgress() float64 {
	if q.totalRows == 0 {
		return 1
	}
	return float64(q.processed) / float64(q.totalRows)
}

// RowsProcessed implements aqp.OnlineQuery.
func (q *benchQuery) RowsProcessed() int64 { return q.processed }

// StateMemMB implements aqp.OnlineQuery.
func (q *benchQuery) StateMemMB() float64 { return 4 }

// ConfidenceInterval implements aqp.OnlineQuery.
func (q *benchQuery) ConfidenceInterval(string, int, float64) (float64, float64, bool) {
	return 0, 0, false
}

// Checkpoint implements aqp.OnlineQuery.
func (q *benchQuery) Checkpoint() ([]byte, error) {
	return []byte(fmt.Sprintf("%d", q.processed)), nil
}

// Restore implements aqp.OnlineQuery.
func (q *benchQuery) Restore(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%d", &q.processed)
	return err
}

var benchClasses = [...]string{"light", "medium", "heavy"}

// synthAQPQueue builds n pending AQP jobs with 0–4 simulated completed
// epochs each (real-time curves, envelope state, staggered arrivals) —
// the queue shape Algorithm 1 arbitrates over mid-run.
func synthAQPQueue(n int, seed uint64) []*AQPJob {
	state := seed
	jobs := make([]*AQPJob, 0, n)
	for i := 0; i < n; i++ {
		r := benchSplitmix(&state)
		q := &benchQuery{
			name:       fmt.Sprintf("bench-q%d", i%17),
			totalRows:  int64(200000 + r%800000),
			costPerRow: 0.0001 + float64(r%7)*0.00002,
			specs: []aqp.AggSpec{
				{Name: "s0", Kind: aqp.Sum, Weight: 0.5},
				{Name: "c1", Kind: aqp.Count, Weight: 0.5},
			},
			salt: r,
		}
		j, err := NewAQPJob(AQPJobConfig{
			ID:        fmt.Sprintf("bench-aqp-%05d", i),
			Query:     q,
			Criteria:  criteria.Criteria{Kind: criteria.Accuracy, Threshold: 0.9, Deadline: criteria.Deadline{Value: 1800, Unit: criteria.Seconds}},
			Class:     benchClasses[i%len(benchClasses)],
			EstMemMB:  float64(256 + r%2048),
			BatchRows: 2000,
		})
		if err != nil {
			panic(err) // unreachable: the query is always non-nil
		}
		j.arrival = sim.Time(float64(i%40) * 2)
		j.arrived = true
		j.status = StatusPending
		now := j.arrival
		for e := 0; e < int(r%5); e++ {
			var work float64
			for b := 0; b < j.epochBatches; b++ {
				rows, cost := q.ProcessBatch(j.batchRows, 2)
				work += cost
				if rows == 0 {
					break
				}
			}
			if work <= 0 {
				work = 0.001
			}
			now += sim.Time(work)
			j.epochs++
			j.processingSecs += work
			j.normSecs += work * aqp.Speedup(2)
			j.everRan = true
			j.lastRelease = now
			j.observeEpoch(now)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// synthAQPRepo seeds a history repository with exponential-progress
// curves matching the synthetic query names, so estimator-backed
// policies pay their real retrieval + fit cost.
func synthAQPRepo(n int, seed uint64) *estimate.Repository {
	state := seed ^ 0xa59b
	repo := estimate.NewRepository()
	for i := 0; i < n; i++ {
		r := benchSplitmix(&state)
		rate := 0.002 + float64(r%9)*0.0005
		pts := make([]estimate.Point, 0, 12)
		for k := 1; k <= 12; k++ {
			x := float64(k) * 50
			pts = append(pts, estimate.Point{X: x, Y: 1 - math.Exp(-rate*x)})
		}
		repo.AddAQP(estimate.AQPRecord{
			ID:        fmt.Sprintf("bench-hist-%d", i),
			Query:     fmt.Sprintf("bench-q%d", i%17),
			Class:     benchClasses[i%len(benchClasses)],
			BatchRows: 2000,
			Curve:     pts,
		})
	}
	return repo
}

// synthDLTQueue builds n pending DLT jobs over the CV zoo with 0–3
// trained epochs each and a mix of the three criteria kinds.
func synthDLTQueue(n int, seed uint64) ([]*DLTJob, error) {
	models := dlt.ScratchModels(dlt.CV)
	state := seed ^ 0x5ca1ab1e
	jobs := make([]*DLTJob, 0, n)
	for i := 0; i < n; i++ {
		r := benchSplitmix(&state)
		cfg := dlt.Config{
			Model:     models[int(r%uint64(len(models)))],
			Dataset:   "cifar10",
			BatchSize: dlt.BatchSizesCV[int(r>>8)%len(dlt.BatchSizesCV)],
			Optimizer: dlt.Optimizers[int(r>>16)%len(dlt.Optimizers)],
			LR:        dlt.LearningRates[int(r>>24)%len(dlt.LearningRates)],
			Seed:      r,
		}
		trainer, err := dlt.NewJob(cfg)
		if err != nil {
			return nil, err
		}
		var crit criteria.Criteria
		switch i % 3 {
		case 0:
			crit = criteria.Criteria{Kind: criteria.Accuracy, Threshold: 0.7, Deadline: criteria.Deadline{Value: 40, Unit: criteria.Epochs}}
		case 1:
			crit = criteria.Criteria{Kind: criteria.Convergence, Threshold: 0.002, Deadline: criteria.Deadline{Value: 40, Unit: criteria.Epochs}}
		default:
			crit = criteria.Criteria{Kind: criteria.Runtime, Deadline: criteria.Deadline{Value: 30, Unit: criteria.Epochs}}
		}
		j, err := NewDLTJob(fmt.Sprintf("bench-dlt-%05d", i), trainer, crit)
		if err != nil {
			return nil, err
		}
		j.arrival = sim.Time(float64(i % 60))
		j.arrived = true
		j.status = StatusPending
		now := j.arrival
		for e := 0; e < int(r%4); e++ {
			_, secs := trainer.TrainEpoch()
			now += sim.Time(secs)
			j.epochs++
			j.processingSecs += secs
			j.everRan = true
			j.lastRelease = now
			j.lastDevice = int(r % 4)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// synthDLTRepo seeds a history repository with plausible CV training
// records so TEE/TME retrieval and fitting pay their real cost.
func synthDLTRepo(n int, seed uint64) *estimate.Repository {
	models := dlt.ScratchModels(dlt.CV)
	state := seed ^ 0xd17a
	repo := estimate.NewRepository()
	for i := 0; i < n; i++ {
		r := benchSplitmix(&state)
		name := models[int(r%uint64(len(models)))]
		spec, err := dlt.Lookup(name)
		if err != nil {
			continue // unreachable: names come from the zoo
		}
		epochs := 8 + int(r%12)
		curve := make([]float64, epochs)
		rate := 0.18 + float64(r%10)*0.015
		for k := range curve {
			curve[k] = spec.BaseAccuracy * (1 - math.Exp(-rate*float64(k+1)))
		}
		repo.AddDLT(estimate.DLTRecord{
			ID:        fmt.Sprintf("bench-dlt-hist-%d", i),
			Model:     name,
			Family:    spec.Family,
			Dataset:   "cifar10",
			ParamsM:   spec.ParamsM,
			BatchSize: dlt.BatchSizesCV[int(r>>8)%len(dlt.BatchSizesCV)],
			Optimizer: dlt.Optimizers[int(r>>16)%len(dlt.Optimizers)],
			LR:        dlt.LearningRates[int(r>>24)%len(dlt.LearningRates)],
			Epochs:    epochs,
			AccCurve:  curve,
			PeakMemMB: 1500 + float64(r%2000),
			EpochSecs: 40 + float64(r%80),
		})
	}
	return repo
}
