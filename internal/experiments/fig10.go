package experiments

import (
	"fmt"
	"strings"
	"sync"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

// dltPolicyName identifies the Fig. 10 lineup.
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

// newDLTScheduler instantiates a policy over a (seeded) repository.
func newDLTScheduler(name dltPolicyName, repo *estimate.Repository) core.DLTScheduler {
	tee := estimate.NewTEE(repo, 3)
	tme := estimate.NewTME(repo, 3)
	switch name {
	case PolicyRotaryAdaptive:
		return core.NewRotaryDLT(0.5, tee, tme)
	case PolicyRotaryFairness:
		return core.NewRotaryDLT(1.0, tee, tme)
	case PolicyRotaryEfficiency:
		return core.NewRotaryDLT(0.0, tee, tme)
	case PolicySRF:
		return baselines.SRF{}
	case PolicyBCF:
		return baselines.BCF{}
	case PolicyLAFDLT:
		return baselines.LAFDLT{}
	default:
		panic(fmt.Sprintf("experiments: unknown DLT policy %q", name))
	}
}

// runDLTPolicy executes specs under one policy with a freshly seeded
// repository, returning the executor for inspection.
func runDLTPolicy(specs []workload.DLTSpec, name dltPolicyName, seed uint64) (*core.DLTExecutor, error) {
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 40, 30, seed); err != nil {
		return nil, err
	}
	sched := newDLTScheduler(name, repo)
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), sched, repo)
	if _, err := workload.SubmitDLT(specs, exec.Submit); err != nil {
		return nil, err
	}
	if err := exec.Run(); err != nil {
		return nil, err
	}
	return exec, nil
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
				execs[i], errs[i] = runDLTPolicy(specs, p, seed)
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
