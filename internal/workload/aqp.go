// Package workload synthesizes the paper's two evaluation workloads: the
// Table I TPC-H AQP workload (30 jobs, Poisson arrivals, light/medium/
// heavy mix, uniform accuracy-threshold and deadline spaces) and the
// Table II survey-based DLT workload (60/20/20 convergence/accuracy/
// runtime criteria over the model zoo's hyperparameter spaces). It also
// seeds historical-job repositories so the estimators have the history
// the paper assumes, and builds and submits workloads to an executor
// (SubmitAQP, SubmitDLT, SubmitUnified): the one way every command,
// example and experiment runs them.
package workload

import (
	"fmt"
	"runtime"
	"sync"

	"rotary/internal/aqp"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/tpch"
)

// Table I parameter spaces.
var (
	// AccuracyThresholds are the Table I accuracy-threshold choices.
	AccuracyThresholds = []float64{0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}
	// DeadlinesByClass are the Table I per-class deadline spaces, seconds.
	DeadlinesByClass = map[tpch.Class][]float64{
		tpch.Light:  {360, 420, 480, 540, 600, 660, 720, 780, 840, 900},
		tpch.Medium: {1080, 1200, 1320, 1440, 1560, 1680, 1800, 1920, 2040, 2160},
		tpch.Heavy:  {1440, 1620, 1800, 1980, 2160, 2340, 2520, 2700, 2880, 3060},
	}
)

// AQPSpec is one synthesized AQP job before binding to a catalog.
type AQPSpec struct {
	ID           string
	Query        string
	Class        tpch.Class
	Tenant       string
	Accuracy     float64
	DeadlineSecs float64
	ArrivalSecs  float64
	BatchRows    int
}

// AQPWorkloadConfig parameterizes Table I generation.
type AQPWorkloadConfig struct {
	// Jobs is the workload size (30 in the paper).
	Jobs int
	// Mix is the light/medium/heavy job proportion (Table I: 40/30/30).
	Mix [3]float64
	// MeanArrivalSecs is the Poisson mean inter-arrival time (160 s).
	MeanArrivalSecs float64
	// BatchRows is the per-step row batch size.
	BatchRows int
	// Seed drives every random choice.
	Seed uint64
}

// DefaultAQPWorkload is the Table I configuration.
func DefaultAQPWorkload(jobs int, seed uint64) AQPWorkloadConfig {
	if jobs <= 0 {
		jobs = 30
	}
	return AQPWorkloadConfig{
		Jobs:            jobs,
		Mix:             [3]float64{0.40, 0.30, 0.30},
		MeanArrivalSecs: 160,
		BatchRows:       2000,
		Seed:            seed,
	}
}

// GenerateAQP samples a Table I workload: query type, accuracy threshold
// and deadline are uniform over their spaces; arrivals follow a Poisson
// process.
func GenerateAQP(cfg AQPWorkloadConfig) []AQPSpec {
	r := sim.NewRand(cfg.Seed ^ 0xa9b)
	if cfg.Jobs <= 0 {
		cfg.Jobs = 30
	}
	if cfg.BatchRows <= 0 {
		cfg.BatchRows = 2000
	}
	specs := make([]AQPSpec, 0, cfg.Jobs)
	arrival := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		clsIdx := r.PickWeighted(cfg.Mix[:])
		cls := tpch.Class(clsIdx)
		query := sim.Pick(r, tpch.QueriesOfClass(cls))
		spec := AQPSpec{
			ID:           fmt.Sprintf("aqp-%02d-%s", i, query),
			Query:        query,
			Class:        cls,
			Accuracy:     sim.Pick(r, AccuracyThresholds),
			DeadlineSecs: sim.Pick(r, DeadlinesByClass[cls]),
			ArrivalSecs:  arrival,
			BatchRows:    cfg.BatchRows,
		}
		specs = append(specs, spec)
		if cfg.MeanArrivalSecs > 0 {
			arrival += r.Exp(cfg.MeanArrivalSecs)
		}
	}
	return specs
}

// AQPJobConfig binds a spec to a catalog: the spec's query and memory
// estimate, and its accuracy threshold within a wall-time deadline.
// BuildAQPJob constructs from it; a caller that varies a knob the spec
// does not carry (the ablations' envelope window) edits it first.
func AQPJobConfig(cat *tpch.Catalog, spec AQPSpec) (core.AQPJobConfig, error) {
	q, err := cat.NewQuery(spec.Query)
	if err != nil {
		return core.AQPJobConfig{}, err
	}
	prof, err := cat.MemoryProfile(spec.Query)
	if err != nil {
		return core.AQPJobConfig{}, err
	}
	crit, err := criteria.NewAccuracy("ACC", spec.Accuracy,
		criteria.Deadline{Value: spec.DeadlineSecs, Unit: criteria.Seconds})
	if err != nil {
		return core.AQPJobConfig{}, err
	}
	return core.AQPJobConfig{
		ID:        spec.ID,
		Query:     q,
		Criteria:  crit,
		Class:     spec.Class.String(),
		Tenant:    spec.Tenant,
		EstMemMB:  prof.EstimateMB(),
		BatchRows: spec.BatchRows,
	}, nil
}

// BuildAQPJob binds a spec to a catalog, producing a runnable arbitrated
// job.
func BuildAQPJob(cat *tpch.Catalog, spec AQPSpec) (*core.AQPJob, error) {
	cfg, err := AQPJobConfig(cat, spec)
	if err != nil {
		return nil, err
	}
	return core.NewAQPJob(cfg)
}

// SubmitAQP builds every spec and submits it at its arrival time through
// submit (an executor's Submit or a unified executor's SubmitAQP). It
// returns the jobs in spec order and stops at the first spec that does
// not build, naming it.
func SubmitAQP(cat *tpch.Catalog, specs []AQPSpec, submit func(*core.AQPJob, sim.Time)) ([]*core.AQPJob, error) {
	jobs := make([]*core.AQPJob, 0, len(specs))
	for _, spec := range specs {
		j, err := BuildAQPJob(cat, spec)
		if err != nil {
			return nil, fmt.Errorf("workload: job %s: %w", spec.ID, err)
		}
		submit(j, sim.Time(spec.ArrivalSecs))
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// RecommendedBatchRows returns a per-step batch size giving roughly 256
// batches per full pass over the lineitem stream, so that arbitration
// granularity (epochs per job) is scale-factor-invariant — at SF=1 this
// lands near the paper's batch sizing, and at test scale factors it keeps
// the estimators supplied with enough per-epoch observations.
func RecommendedBatchRows(cat *tpch.Catalog) int {
	rows, err := cat.FactRows("q1")
	if err != nil || rows <= 0 {
		return 2000
	}
	b := rows / 256
	if b < 50 {
		b = 50
	}
	return b
}

// DefaultAQPMemoryMB sizes the pool memory so a Table I mix contends: a
// bit over half the summed estimates of one job per query, which admits
// many light jobs but only a few heavy ones at a time (the regime the
// paper's 192 GB / SF=1 setup produces with 30 concurrent jobs).
func DefaultAQPMemoryMB(cat *tpch.Catalog) float64 {
	var total float64
	for _, q := range tpch.AllQueries {
		if prof, err := cat.MemoryProfile(q); err == nil {
			total += prof.EstimateMB()
		}
	}
	return total * 0.55
}

// SeedAQPHistory runs every TPC-H query once, standalone on a single
// thread, and stores its (runtime, estimated-accuracy) progress curve in
// the repository — the historical data Rotary-AQP's progress estimator
// fits against ("the historical data are from the selected historical
// jobs that are similar to job j", §IV-A). Each run's final snapshot is
// the query's ground truth (tpch.Catalog.Drain), so the one pass both
// scores the curve and fills the catalog's truth cache for NewQuery.
//
// The 22 runs are independent (each query owns its consumer; the catalog's
// shared caches are locked), so they are spread over GOMAXPROCS goroutines.
// The records are added in tpch.AllQueries order once all are in, which
// makes the repository identical to one seeded query by query.
func SeedAQPHistory(repo *estimate.Repository, cat *tpch.Catalog, batchRows int) error {
	recs, err := seedAQPRecords(cat, batchRows)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		repo.AddAQP(rec)
	}
	return nil
}

// seedAQPRecords runs SeedAQPHistory's 22 queries and returns their
// records in tpch.AllQueries order.
func seedAQPRecords(cat *tpch.Catalog, batchRows int) ([]estimate.AQPRecord, error) {
	if batchRows <= 0 {
		batchRows = 2000
	}
	recs := make([]estimate.AQPRecord, len(tpch.AllQueries))
	errs := make([]error, len(tpch.AllQueries))
	work := make(chan int, len(recs)) // every index up front, as aqp.runPartitions queues its partitions
	for i := range recs {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(recs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				recs[i], errs[i] = aqpHistoryRecord(cat, tpch.AllQueries[i], batchRows)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// aqpHistoryRecord is one query's standalone run for SeedAQPHistory.
func aqpHistoryRecord(cat *tpch.Catalog, name string, batchRows int) (estimate.AQPRecord, error) {
	cls, err := tpch.ClassOf(name)
	if err != nil {
		return estimate.AQPRecord{}, err
	}
	// Size batches against the query's own fact stream so every
	// historical curve has enough points to fit, even for queries
	// whose fact table is small (customers, partsupp).
	qBatch := batchRows
	if factRows, ferr := cat.FactRows(name); ferr == nil {
		if cap := factRows / 64; cap < qBatch {
			qBatch = cap
		}
	}
	if qBatch < 10 {
		qBatch = 10
	}
	var secs float64
	var curve []estimate.Point
	var snaps []aqp.Snapshot
	final, err := cat.Drain(name, qBatch, 4, func(cost float64, snap aqp.Snapshot) {
		secs += cost
		curve = append(curve, estimate.Point{X: secs})
		snaps = append(snaps, snap)
	})
	if err != nil {
		return estimate.AQPRecord{}, err
	}
	// Historical curves store the retrospective true accuracy: once a job
	// has run to completion its final answer is known, so its whole αc/αf
	// trajectory is reconstructible.
	scorer := aqp.NewFinal(final)
	for i, snap := range snaps {
		curve[i].Y = scorer.Accuracy(snap)
	}
	return estimate.AQPRecord{
		ID:        "hist-" + name,
		Query:     name,
		Class:     cls.String(),
		BatchRows: batchRows,
		Curve:     curve,
	}, nil
}
