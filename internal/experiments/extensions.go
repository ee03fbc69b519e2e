package experiments

import (
	"fmt"
	"os"
	"strings"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/workload"
)

// AblationMaterialization exercises §VI's materialization trade-off with
// the real checkpoint store: the same contended Table I workload runs
// with deferred-job state persisted disk-only versus with a memory tier
// large enough to keep every paused job resident. Headline metrics:
// makespan and attained jobs.
func AblationMaterialization(cfg Config) (*AblationResult, error) {
	cat := catalogFor(cfg.SF, cfg.Seed)
	wcfg := workload.DefaultAQPWorkload(cfg.AQPJobs, cfg.Seed)
	wcfg.BatchRows = workload.RecommendedBatchRows(cat)
	specs := workload.GenerateAQP(wcfg)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, wcfg.BatchRows); err != nil {
		return nil, err
	}

	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: checkpoint materialization (disk-only vs memory tier)\n")
	for _, v := range []struct {
		label string
		slots int
	}{{"disk-only", 0}, {"memory-tier", 1 << 20}} {
		dir, err := os.MkdirTemp("", "rotary-ckpt-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, err := core.NewCheckpointStore(dir, v.slots)
		if err != nil {
			return nil, err
		}
		execCfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
		execCfg.Store = store
		// A small pool forces constant deferral, so checkpoints are
		// actually resumed rather than hot-continued.
		execCfg.Threads = 6
		execCfg.CheckpointBaseSecs = 5
		sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
		exec, err := runAQP(cat, execCfg, sched, repo, specs)
		if err != nil {
			return nil, err
		}
		attained := metrics.AnalyzeAQP(sched.Name(), exec.Jobs(), nil).AttainedByClass()["total"]
		writes, memHits, diskHits, diskBytes := store.Stats()
		res.Values[v.label+"/makespan"] = exec.Engine().Now().Seconds()
		res.Values[v.label+"/attained"] = float64(attained)
		fmt.Fprintf(&b, "%-12s makespan=%.0fs attained=%d writes=%d mem-resumes=%d disk-resumes=%d disk-bytes=%d\n",
			v.label, exec.Engine().Now().Seconds(), attained, writes, memHits, diskHits, diskBytes)
	}
	res.Text = b.String()
	return res, nil
}

// UnifiedResult compares the §VI unified AQP+DLT system's cluster-wide
// fairness threshold at T = 100% and T = 0% on a mixed workload.
type UnifiedResult struct {
	// MinProgressAt maps "T=100%"/"T=0%" to the cluster-wide minimum
	// progress sampled every 10 virtual minutes.
	MinProgressAt map[string][]float64
	// Attained maps the variants to total attained jobs (AQP + DLT).
	Attained map[string]int
	Text     string
}

// Unified regenerates the §VI unified-arbitration comparison.
func Unified(cfg Config) (*UnifiedResult, error) {
	res := &UnifiedResult{
		MinProgressAt: map[string][]float64{},
		Attained:      map[string]int{},
	}
	var b strings.Builder
	b.WriteString("§VI extension: unified AQP+DLT arbitration, cluster-wide min progress per 10 min\n")
	for _, v := range []struct {
		label     string
		threshold float64
	}{{"T=100%", 1.0}, {"T=0%", 0.0}} {
		u, err := workload.SubmitUnified(catalogFor(cfg.SF, cfg.Seed), v.threshold, cfg.AQPJobs/2, cfg.DLTJobs/2, cfg.Seed)
		if err != nil {
			return nil, err
		}
		series, err := u.RunSampled(600)
		if err != nil {
			return nil, err
		}
		aqpDone, dltDone := u.Attained()
		attained := aqpDone + dltDone
		res.MinProgressAt[v.label] = series
		res.Attained[v.label] = attained
		fmt.Fprintf(&b, "%-8s attained=%d min-progress:", v.label, attained)
		for i, p := range series {
			if i >= 12 {
				b.WriteString(" …")
				break
			}
			fmt.Fprintf(&b, " %.2f", p)
		}
		b.WriteByte('\n')
	}
	res.Text = b.String()
	return res, nil
}

// AblationSwapOverhead quantifies §III-C's third advantage ("the overhead
// of job interruption, such as checkpointing to disk, can be avoided if a
// job is continuously prioritized"): the same DLT workload runs under
// efficiency Rotary-DLT — which keeps its top jobs on their devices for
// consecutive epochs — with the swap cost (checkpoint + restore + CUDA
// warm-up on re-placement) zeroed versus priced, against round-robin
// SRF-tail scheduling, whose rotation churns placements.
func AblationSwapOverhead(cfg Config) (*AblationResult, error) {
	specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(cfg.DLTJobs, cfg.Seed))
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: placement-swap overhead (§III-C continuous prioritization)\n")
	variants := []struct {
		label  string
		policy string // a cliutil.DLTPolicies name
		swap   bool
	}{
		{"rotary/free-swaps", "efficiency", false},
		{"rotary/priced-swaps", "efficiency", true},
		{"round-robin/free-swaps", "srf", false},
		{"round-robin/priced-swaps", "srf", true},
	}
	for _, v := range variants {
		execCfg := core.DefaultDLTExecConfig()
		if !v.swap {
			execCfg.SwapBaseSecs = 0
			execCfg.SwapSecsPerParam = 0
		}
		exec, _, err := runDLTPolicy(execCfg, specs, v.policy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Total GPU-seconds consumed: swap costs land here directly (the
		// makespan absorbs them into round-barrier slack).
		var busy float64
		for _, j := range exec.Jobs() {
			busy += j.ProcessingSecs()
		}
		res.Values[v.label] = busy
		fmt.Fprintf(&b, "%-26s gpu-seconds=%.0f makespan=%.0fs\n",
			v.label, busy, exec.Engine().Now().Seconds())
	}
	// Swap-cost penalty per policy: the GPU time burned on checkpoint/
	// restore/warm-up. Continuous prioritization keeps Rotary's low.
	rotaryPenalty := res.Values["rotary/priced-swaps"] - res.Values["rotary/free-swaps"]
	rrPenalty := res.Values["round-robin/priced-swaps"] - res.Values["round-robin/free-swaps"]
	res.Values["rotary/penalty"] = rotaryPenalty
	res.Values["round-robin/penalty"] = rrPenalty
	fmt.Fprintf(&b, "swap-cost GPU-seconds: rotary %.0f, round-robin %.0f\n", rotaryPenalty, rrPenalty)
	res.Text = b.String()
	return res, nil
}

// AblationArrivalRate sweeps the Poisson arrival rate around Table I's
// λ=160 s, measuring how Rotary-AQP's attainment advantage over EDF moves
// with contention: faster arrivals mean more concurrent jobs competing
// for the 20 threads and the memory budget.
func AblationArrivalRate(cfg Config) (*AblationResult, error) {
	cat := catalogFor(cfg.SF, cfg.Seed)
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: arrival-rate sensitivity (attained jobs, rotary vs edf)\n")
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	for _, mean := range []float64{80, 160, 320} {
		var attained [2]float64
		for run := 0; run < runs; run++ {
			seed := cfg.Seed + uint64(run)
			wcfg := workload.DefaultAQPWorkload(cfg.AQPJobs, seed)
			wcfg.MeanArrivalSecs = mean
			wcfg.BatchRows = workload.RecommendedBatchRows(cat)
			specs := workload.GenerateAQP(wcfg)
			for i, name := range []aqpPolicyName{PolicyRotaryAQP, PolicyEDF} {
				jobs, err := runAQPPolicy(cat, specs, name, seed)
				if err != nil {
					return nil, err
				}
				attained[i] += float64(metrics.AnalyzeAQP(string(name), jobs, nil).AttainedByClass()["total"])
			}
		}
		attained[0] /= float64(runs)
		attained[1] /= float64(runs)
		label := fmt.Sprintf("mean-arrival=%.0fs", mean)
		res.Values[label+"/rotary"] = attained[0]
		res.Values[label+"/edf"] = attained[1]
		fmt.Fprintf(&b, "%-22s rotary=%4.1f edf=%4.1f (of %d, mean of %d runs)\n",
			label, attained[0], attained[1], cfg.AQPJobs, runs)
	}
	res.Text = b.String()
	return res, nil
}
