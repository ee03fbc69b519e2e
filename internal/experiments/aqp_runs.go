package experiments

import (
	"fmt"
	"math"
	"sync"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// aqpPolicyName identifies the five Fig. 6 policies plus the Fig. 9
// random-estimator variant.
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

// newAQPScheduler instantiates a policy. Rotary variants get a repository
// pre-seeded with one standalone run of every query (§IV-A's historical
// data); baselines do not consult history.
func newAQPScheduler(name aqpPolicyName, repo *estimate.Repository, seed uint64) core.AQPScheduler {
	switch name {
	case PolicyRotaryAQP:
		return core.NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3))
	case PolicyRoundRobin:
		return baselines.RoundRobinAQP{}
	case PolicyEDF:
		return baselines.EDFAQP{}
	case PolicyLAF:
		return baselines.LAFAQP{}
	case PolicyReLAQS:
		return baselines.ReLAQS{}
	case PolicyRandomEst:
		return baselines.RandomRotaryAQP(sim.NewRand(seed ^ 0xf19))
	default:
		panic(fmt.Sprintf("experiments: unknown AQP policy %q", name))
	}
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

// runAQPPolicy executes one workload under one policy and returns the
// terminal jobs.
func runAQPPolicy(cat *tpch.Catalog, specs []workload.AQPSpec, name aqpPolicyName, seed uint64) ([]*core.AQPJob, error) {
	repo := estimate.NewRepository()
	if name == PolicyRotaryAQP || name == PolicyRandomEst {
		var err error
		repo, err = seededHistory(cat, specs[0].BatchRows)
		if err != nil {
			return nil, err
		}
	}
	sched := newAQPScheduler(name, repo, seed)
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
	if _, err := workload.SubmitAQP(cat, specs, exec.Submit); err != nil {
		return nil, err
	}
	if err := exec.Run(); err != nil {
		return nil, err
	}
	return exec.Jobs(), nil
}

// isolatedRuntimes measures each spec standalone: a fresh executor with
// the whole pool to itself and the Rotary scheduler, the "running it
// independently and isolated" baseline of Fig. 7b.
func isolatedRuntimes(cat *tpch.Catalog, specs []workload.AQPSpec) (map[string]float64, error) {
	repo, err := seededHistory(cat, specs[0].BatchRows)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3))
		exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
		spec.ArrivalSecs = 0
		jobs, err := workload.SubmitAQP(cat, []workload.AQPSpec{spec}, exec.Submit)
		if err != nil {
			return nil, err
		}
		if err := exec.Run(); err != nil {
			return nil, err
		}
		out[spec.ID] = (jobs[0].EndTime() - jobs[0].Arrival()).Seconds()
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
