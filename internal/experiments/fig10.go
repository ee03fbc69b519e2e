package experiments

import (
	"fmt"
	"strings"
	"sync"

	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

// dltPolicyName is Fig. 10's printed label for a policy.
type dltPolicyName string

// The evaluated DLT policies.
const (
	PolicyRotaryAdaptive   dltPolicyName = "rotary-adaptive(T=50%)"
	PolicyRotaryFairness   dltPolicyName = "rotary-fairness(T=100%)"
	PolicyRotaryEfficiency dltPolicyName = "rotary-efficiency(T=0%)"
	PolicySRF              dltPolicyName = "srf"
	PolicyBCF              dltPolicyName = "bcf"
	PolicyLAFDLT           dltPolicyName = "laf"
)

var fig10Policies = []dltPolicyName{
	PolicyRotaryAdaptive, PolicyRotaryFairness, PolicyRotaryEfficiency,
	PolicySRF, PolicyBCF, PolicyLAFDLT,
}

// dltTableName maps a label to its cliutil.DLTPolicies name.
var dltTableName = map[dltPolicyName]string{
	PolicyRotaryAdaptive: "adaptive", PolicyRotaryFairness: "fairness", PolicyRotaryEfficiency: "efficiency",
	PolicySRF: "srf", PolicyBCF: "bcf", PolicyLAFDLT: "laf",
}

// runDLT builds an executor over repo, submits specs to it under sched
// and runs it to completion.
func runDLT(cfg core.DLTExecConfig, sched core.DLTScheduler, repo *estimate.Repository,
	specs []workload.DLTSpec) (*core.DLTExecutor, error) {
	exec := core.NewDLTExecutor(cfg, sched, repo)
	if _, err := workload.SubmitDLT(specs, exec.Submit); err != nil {
		return nil, err
	}
	return exec, exec.Run()
}

// seededDLTHistory returns a repository holding the 40 historical jobs
// the DLT experiments start from.
func seededDLTHistory(seed uint64) (*estimate.Repository, error) {
	repo := estimate.NewRepository()
	return repo, workload.SeedDLTHistory(repo, 40, 30, seed)
}

// runDLTPolicy executes specs under the named cliutil.DLTPolicies entry
// over a freshly seeded history, returning the executor and scheduler
// for inspection.
func runDLTPolicy(cfg core.DLTExecConfig, specs []workload.DLTSpec, name string, seed uint64) (*core.DLTExecutor, core.DLTScheduler, error) {
	repo, err := seededDLTHistory(seed)
	if err != nil {
		return nil, nil, err
	}
	sched, err := cliutil.DLTPolicies.New(name, repo)
	if err != nil {
		return nil, nil, err
	}
	exec, err := runDLT(cfg, sched, repo, specs)
	return exec, sched, err
}

// Fig10Result holds the Fig. 10 attainment-progress distributions over
// time for every policy, pooled over cfg.Runs workloads.
type Fig10Result struct {
	// Snapshots maps policy → per-interval progress distribution.
	Snapshots map[dltPolicyName][]metrics.DLTSnapshot
	// SnapshotTimes are the common sample times.
	SnapshotTimes []sim.Time
	Text          string
}

// Fig10 regenerates Fig. 10a-c (and the baselines' series).
func Fig10(cfg Config) (*Fig10Result, error) {
	// Collect all runs' jobs per policy, then pool the distributions.
	jobsByPolicy := map[dltPolicyName][][]*core.DLTJob{}
	var horizon sim.Time
	for run := 0; run < cfg.Runs; run++ {
		seed := cfg.Seed + uint64(run)
		specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(cfg.DLTJobs, seed))
		if err != nil {
			return nil, err
		}
		// The six policies are independent; run them concurrently.
		execs := make([]*core.DLTExecutor, len(fig10Policies))
		errs := make([]error, len(fig10Policies))
		var wg sync.WaitGroup
		for i, p := range fig10Policies {
			wg.Add(1)
			go func(i int, p dltPolicyName) {
				defer wg.Done()
				execs[i], _, errs[i] = runDLTPolicy(core.DefaultDLTExecConfig(), specs, dltTableName[p], seed)
			}(i, p)
		}
		wg.Wait()
		for i, p := range fig10Policies {
			if errs[i] != nil {
				return nil, fmt.Errorf("policy %s run %d: %w", p, run, errs[i])
			}
			jobsByPolicy[p] = append(jobsByPolicy[p], execs[i].Jobs())
			if t := execs[i].Engine().Now(); t > horizon {
				horizon = t
			}
		}
	}
	// Common snapshot grid: every 60 virtual minutes.
	var times []sim.Time
	for t := sim.Time(3600); t <= horizon+3600; t += 3600 {
		times = append(times, t)
	}
	res := &Fig10Result{Snapshots: map[dltPolicyName][]metrics.DLTSnapshot{}, SnapshotTimes: times}
	var b strings.Builder
	b.WriteString("Fig 10: DLT attainment-progress distributions over time (pooled over runs)\n\n")
	for _, p := range fig10Policies {
		// Pool every run's per-job progress values at each time.
		snaps := make([]metrics.DLTSnapshot, len(times))
		for i, t := range times {
			var vals []float64
			attained := 0
			for _, jobs := range jobsByPolicy[p] {
				for _, j := range jobs {
					vals = append(vals, metrics.DLTProgressAt(j, t))
					if j.Status() == core.StatusAttainedStop && j.EndTime() <= t {
						attained++
					}
				}
			}
			snaps[i] = metrics.DLTSnapshot{At: t, Progress: metrics.Summarize(vals), Attained: attained / cfg.Runs}
		}
		res.Snapshots[p] = snaps
		b.WriteString(metrics.RenderDLTSnapshots(string(p), snaps))
		b.WriteByte('\n')
	}
	// Charts: the two quantities the paper's violins communicate — the
	// minimum attainment progress (fairness) and the attained count
	// (efficiency) over time.
	var minSeries, attSeries []metrics.Series
	for _, p := range fig10Policies {
		ms := metrics.Series{Name: string(p)}
		as := metrics.Series{Name: string(p)}
		for _, s := range res.Snapshots[p] {
			ms.Points = append(ms.Points, metrics.XY{X: s.At.Minutes(), Y: s.Progress.Min})
			as.Points = append(as.Points, metrics.XY{X: s.At.Minutes(), Y: float64(s.Attained)})
		}
		minSeries = append(minSeries, ms)
		attSeries = append(attSeries, as)
	}
	b.WriteString(metrics.RenderLineChart("minimum attainment progress vs minutes", minSeries, 64, 12))
	b.WriteByte('\n')
	b.WriteString(metrics.RenderLineChart("attained jobs vs minutes", attSeries, 64, 12))
	res.Text = b.String()
	return res, nil
}
