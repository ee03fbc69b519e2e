package experiments

import (
	"fmt"
	"math"
	"sync"

	"rotary/internal/baselines"
	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// aqpPolicyName is an experiment's printed label for one of the five
// Fig. 6 policies or the Fig. 9 random-estimator variant.
type aqpPolicyName string

// The evaluated AQP policies.
const (
	PolicyRotaryAQP  aqpPolicyName = "rotary-aqp"
	PolicyRoundRobin aqpPolicyName = "round-robin"
	PolicyEDF        aqpPolicyName = "edf"
	PolicyLAF        aqpPolicyName = "laf"
	PolicyReLAQS     aqpPolicyName = "relaqs"
	PolicyRandomEst  aqpPolicyName = "rotary-random-est"
)

// fig6Policies is the Fig. 6 lineup.
var fig6Policies = []aqpPolicyName{PolicyRotaryAQP, PolicyReLAQS, PolicyEDF, PolicyLAF, PolicyRoundRobin}

// aqpTableName maps a label to its cliutil.AQPPolicies name. The Fig. 9
// random-estimator variant is the one policy the table does not hold.
var aqpTableName = map[aqpPolicyName]string{
	PolicyRotaryAQP: "rotary", PolicyRoundRobin: "rr", PolicyEDF: "edf", PolicyLAF: "laf", PolicyReLAQS: "relaqs",
}

// historyMu guards the seeded-history cache: seeding replays every query
// standalone, so it is computed once per (catalog, batch size) and cloned
// per run.
var (
	historyMu    sync.Mutex
	historyCache = map[historyKey]*estimate.Repository{}
)

type historyKey struct {
	cat   *tpch.Catalog
	batch int
}

// seededHistory returns a private copy of the once-computed historical
// repository for the catalog.
func seededHistory(cat *tpch.Catalog, batchRows int) (*estimate.Repository, error) {
	historyMu.Lock()
	defer historyMu.Unlock()
	key := historyKey{cat, batchRows}
	base, ok := historyCache[key]
	if !ok {
		base = estimate.NewRepository()
		if err := workload.SeedAQPHistory(base, cat, batchRows); err != nil {
			return nil, err
		}
		historyCache[key] = base
	}
	return base.Clone(), nil
}

// runAQP builds an executor over repo, submits specs to it under sched
// and runs it to completion.
func runAQP(cat *tpch.Catalog, cfg core.AQPExecConfig, sched core.AQPScheduler, repo *estimate.Repository,
	specs []workload.AQPSpec) (*core.AQPExecutor, error) {
	exec := core.NewAQPExecutor(cfg, sched, repo)
	if _, err := workload.SubmitAQP(cat, specs, exec.Submit); err != nil {
		return nil, err
	}
	return exec, exec.Run()
}

// runAQPPolicy executes one workload under one policy, over a copy of the
// seeded history, and returns the terminal jobs.
func runAQPPolicy(cat *tpch.Catalog, specs []workload.AQPSpec, name aqpPolicyName, seed uint64) ([]*core.AQPJob, error) {
	repo, err := seededHistory(cat, specs[0].BatchRows)
	if err != nil {
		return nil, err
	}
	var sched core.AQPScheduler
	if name == PolicyRandomEst {
		sched = baselines.RandomRotaryAQP(sim.NewRand(seed ^ 0xf19))
	} else if sched, err = cliutil.AQPPolicies.New(aqpTableName[name], repo); err != nil {
		return nil, err
	}
	exec, err := runAQP(cat, core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo, specs)
	if err != nil {
		return nil, err
	}
	return exec.Jobs(), nil
}

// isolatedRuntimes measures each spec standalone: a fresh executor with
// the whole pool to itself and the Rotary scheduler, the "running it
// independently and isolated" baseline of Fig. 7b. The runs share one
// history, so each later run also learns from the earlier ones.
func isolatedRuntimes(cat *tpch.Catalog, specs []workload.AQPSpec) (map[string]float64, error) {
	repo, err := seededHistory(cat, specs[0].BatchRows)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		spec.ArrivalSecs = 0
		exec, err := runAQP(cat, core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)),
			core.NewRotaryAQP(estimate.NewAccuracyProgress(repo)), repo, []workload.AQPSpec{spec})
		if err != nil {
			return nil, err
		}
		j := exec.Jobs()[0]
		out[spec.ID] = (j.EndTime() - j.Arrival()).Seconds()
	}
	return out, nil
}

// AveragedAQPReport accumulates per-policy measures over runs.
type AveragedAQPReport struct {
	Policy           string
	AttainedByClass  map[string]float64 // mean attained per class + "total"
	TotalByClass     map[string]float64
	FalseAttainments float64
	AvgWaitSecs      float64
	Runs             int
	// AttainedStddev is the run-to-run standard deviation of the total
	// attained count (0 for single-run experiments).
	AttainedStddev float64

	attainedTotals []float64
}

// accumulate folds one run's report in.
func (a *AveragedAQPReport) accumulate(rep metrics.AQPReport) {
	if a.AttainedByClass == nil {
		a.AttainedByClass = map[string]float64{}
		a.TotalByClass = map[string]float64{}
	}
	for c, n := range rep.AttainedByClass() {
		a.AttainedByClass[c] += float64(n)
	}
	for c, n := range rep.TotalByClass() {
		a.TotalByClass[c] += float64(n)
	}
	a.FalseAttainments += float64(rep.FalseAttained())
	a.AvgWaitSecs += rep.AvgWaitSecs()
	a.attainedTotals = append(a.attainedTotals, float64(rep.AttainedByClass()["total"]))
	a.Runs++
}

func (a *AveragedAQPReport) finalize() {
	if a.Runs == 0 {
		return
	}
	n := float64(a.Runs)
	for c := range a.AttainedByClass {
		a.AttainedByClass[c] /= n
	}
	for c := range a.TotalByClass {
		a.TotalByClass[c] /= n
	}
	a.FalseAttainments /= n
	a.AvgWaitSecs /= n
	if len(a.attainedTotals) > 1 {
		mean := 0.0
		for _, v := range a.attainedTotals {
			mean += v
		}
		mean /= float64(len(a.attainedTotals))
		var ss float64
		for _, v := range a.attainedTotals {
			ss += (v - mean) * (v - mean)
		}
		a.AttainedStddev = math.Sqrt(ss / float64(len(a.attainedTotals)-1))
	}
}

// runAQPComparison runs every named policy over cfg.Runs seeded workloads
// and returns the per-policy averages. withWaiting also measures isolated
// runtimes (expensive) for the Fig. 7b waiting-time column. mix overrides
// the Table I class mix when non-nil (Fig. 8's skewed workloads).
func runAQPComparison(cfg Config, policies []aqpPolicyName, withWaiting bool, mix *[3]float64) (map[aqpPolicyName]*AveragedAQPReport, error) {
	out := make(map[aqpPolicyName]*AveragedAQPReport, len(policies))
	for _, p := range policies {
		out[p] = &AveragedAQPReport{Policy: string(p)}
	}
	for run := 0; run < cfg.Runs; run++ {
		seed := cfg.Seed + uint64(run)
		cat := catalogFor(cfg.SF, cfg.Seed) // same dataset; workload varies by seed
		wcfg := workload.DefaultAQPWorkload(cfg.AQPJobs, seed)
		wcfg.BatchRows = workload.RecommendedBatchRows(cat)
		if mix != nil {
			wcfg.Mix = *mix
		}
		specs := workload.GenerateAQP(wcfg)
		var iso map[string]float64
		if withWaiting {
			var err error
			iso, err = isolatedRuntimes(cat, specs)
			if err != nil {
				return nil, err
			}
		}
		// Policies are independent (private repositories, executors, and
		// jobs over a read-only catalog), so they run concurrently.
		reps := make([]metrics.AQPReport, len(policies))
		errs := make([]error, len(policies))
		var wg sync.WaitGroup
		for i, p := range policies {
			wg.Add(1)
			go func(i int, p aqpPolicyName) {
				defer wg.Done()
				jobs, err := runAQPPolicy(cat, specs, p, seed)
				if err != nil {
					errs[i] = fmt.Errorf("policy %s run %d: %w", p, run, err)
					return
				}
				reps[i] = metrics.AnalyzeAQP(string(p), jobs, iso)
			}(i, p)
		}
		wg.Wait()
		for i, p := range policies {
			if errs[i] != nil {
				return nil, errs[i]
			}
			out[p].accumulate(reps[i])
		}
	}
	for _, a := range out {
		a.finalize()
	}
	return out, nil
}
