package experiments

import (
	"fmt"
	"math"
	"strings"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// runRotaryVariant runs one Table I workload under a customized Rotary
// scheduler and returns the analyzed report.
func runRotaryVariant(cfg Config, mutate func(*core.RotaryAQP), envelopeWindow int) (metrics.AQPReport, error) {
	cat := catalogFor(cfg.SF, cfg.Seed)
	wcfg := workload.DefaultAQPWorkload(cfg.AQPJobs, cfg.Seed)
	wcfg.BatchRows = workload.RecommendedBatchRows(cat)
	specs := workload.GenerateAQP(wcfg)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, specs[0].BatchRows); err != nil {
		return metrics.AQPReport{}, err
	}
	sched := core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))
	if mutate != nil {
		mutate(sched)
	}
	exec := core.NewAQPExecutor(core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat)), sched, repo)
	for _, spec := range specs {
		jc, err := workload.AQPJobConfig(cat, spec)
		if err != nil {
			return metrics.AQPReport{}, err
		}
		jc.EnvelopeWindow = envelopeWindow
		j, err := core.NewAQPJob(jc)
		if err != nil {
			return metrics.AQPReport{}, err
		}
		exec.Submit(j, sim.Time(spec.ArrivalSecs))
	}
	if err := exec.Run(); err != nil {
		return metrics.AQPReport{}, err
	}
	return metrics.AnalyzeAQP(sched.Name(), exec.Jobs(), nil), nil
}

// AblationResult is a generic labeled-variant comparison.
type AblationResult struct {
	// Values maps variant label to the headline metric.
	Values map[string]float64
	Text   string
}

// AblationFixedEpochs compares Rotary-AQP's adaptive running epochs
// against fixed epochs (design decision 2 in DESIGN.md). Headline metric:
// attained heavy jobs.
func AblationFixedEpochs(cfg Config) (*AblationResult, error) {
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: adaptive vs fixed running epochs (attained jobs)\n")
	for _, v := range []struct {
		label    string
		adaptive bool
	}{{"adaptive-epochs", true}, {"fixed-epochs", false}} {
		rep, err := runRotaryVariant(cfg, func(s *core.RotaryAQP) { s.AdaptiveEpochs = v.adaptive }, 0)
		if err != nil {
			return nil, err
		}
		att := rep.AttainedByClass()
		res.Values[v.label] = float64(att["total"])
		res.Values[v.label+"/heavy"] = float64(att["heavy"])
		fmt.Fprintf(&b, "%-18s total=%d heavy=%d\n", v.label, att["total"], att["heavy"])
	}
	res.Text = b.String()
	return res, nil
}

// AblationMemoryBlind compares memory-aware arbitration against the
// memory-blind (ReLAQS-style) variant (design decision 4).
func AblationMemoryBlind(cfg Config) (*AblationResult, error) {
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: memory-aware vs memory-blind arbitration (attained jobs)\n")
	for _, v := range []struct {
		label string
		aware bool
	}{{"memory-aware", true}, {"memory-blind", false}} {
		rep, err := runRotaryVariant(cfg, func(s *core.RotaryAQP) { s.MemoryAware = v.aware }, 0)
		if err != nil {
			return nil, err
		}
		att := rep.AttainedByClass()
		res.Values[v.label] = float64(att["total"])
		fmt.Fprintf(&b, "%-14s total=%d heavy=%d\n", v.label, att["total"], att["heavy"])
	}
	res.Text = b.String()
	return res, nil
}

// AblationEnvelopeWindow sweeps the envelope window (design decision 6):
// §V-A3 predicts longer windows reduce false attainment.
func AblationEnvelopeWindow(cfg Config) (*AblationResult, error) {
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: envelope window vs false attainment\n")
	for _, window := range []int{2, 3, 4, 6, 8} {
		rep, err := runRotaryVariant(cfg, nil, window)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("window=%d", window)
		res.Values[label] = float64(rep.FalseAttained())
		fmt.Fprintf(&b, "%-10s false-attainment=%d attained=%d\n",
			label, rep.FalseAttained(), rep.AttainedByClass()["total"])
	}
	res.Text = b.String()
	return res, nil
}

// AblationEstimatorSources measures prediction error of history-only,
// realtime-only (ReLAQS-style), and joint fitting (design decision 3):
// for each query, after every epoch the three estimators predict the
// accuracy one epoch ahead; the table reports mean absolute error.
func AblationEstimatorSources(cfg Config) (*AblationResult, error) {
	cat := catalogFor(cfg.SF, cfg.Seed)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, 2000); err != nil {
		return nil, err
	}
	type acc struct {
		err float64
		n   int
	}
	modes := map[string]*acc{"history-only": {}, "realtime-only": {}, "joint": {}}
	for _, name := range tpch.AllQueries {
		q, err := cat.NewQuery(name)
		if err != nil {
			return nil, err
		}
		cls, _ := tpch.ClassOf(name)
		var hist []estimate.Point
		for _, rec := range repo.TopKSimilarAQP(name, cls.String(), 2000, 3) {
			hist = append(hist, rec.Curve...)
		}
		var secs float64
		var realtime []estimate.Point
		type pending struct {
			at   float64
			mode string
			pred float64
		}
		var preds []pending
		for !q.Exhausted() {
			var epochCost float64
			for b := 0; b < 4; b++ {
				rows, cost := q.ProcessBatch(2000, 1)
				epochCost += cost
				if rows == 0 {
					break
				}
			}
			secs += epochCost
			actual := q.Accuracy()
			// Resolve predictions that targeted (approximately) this time.
			for _, p := range preds {
				if p.at <= secs {
					m := modes[p.mode]
					m.err += math.Abs(p.pred - actual)
					m.n++
				}
			}
			kept := preds[:0]
			for _, p := range preds {
				if p.at > secs {
					kept = append(kept, p)
				}
			}
			preds = kept
			realtime = append(realtime, estimate.Point{X: secs, Y: actual})
			next := secs + epochCost
			clip := func(v float64) float64 { return math.Max(0, math.Min(1, v)) }
			// Realtime-only cannot extrapolate from a single observation
			// (the ReLAQS cold-start the paper calls out); it predicts
			// "no change" until it has two points.
			rtPred := clip(actual)
			if len(realtime) >= 2 {
				rtPred = clip(estimate.JointFit(nil, realtime).At(next))
			}
			preds = append(preds,
				pending{next, "history-only", clip(estimate.JointFit(hist, nil).At(next))},
				pending{next, "realtime-only", rtPred},
				pending{next, "joint", clip(estimate.JointFit(hist, realtime).At(next))},
			)
		}
	}
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: estimator sources, one-epoch-ahead MAE over all 22 queries\n")
	for _, label := range []string{"history-only", "realtime-only", "joint"} {
		m := modes[label]
		mae := 0.0
		if m.n > 0 {
			mae = m.err / float64(m.n)
		}
		res.Values[label] = mae
		fmt.Fprintf(&b, "%-14s mae=%.4f (n=%d)\n", label, mae, m.n)
	}
	res.Text = b.String()
	return res, nil
}

// AblationThresholdSweep sweeps Algorithm 3's threshold T (design
// decision 5), reporting the fairness metric (minimum attainment
// progress at the workload's halfway point) and the efficiency metric
// (jobs attained by the halfway point).
func AblationThresholdSweep(cfg Config) (*AblationResult, error) {
	specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(cfg.DLTJobs, cfg.Seed))
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Values: map[string]float64{}}
	var b strings.Builder
	b.WriteString("Ablation: Algorithm 3 threshold T sweep\n")
	fmt.Fprintf(&b, "%8s %22s %22s %14s\n", "T", "min-progress@half", "attained@half", "makespan(s)")
	for _, T := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		repo, err := seededDLTHistory(cfg.Seed)
		if err != nil {
			return nil, err
		}
		sched := core.NewRotaryDLT(T, estimate.NewTEE(repo), estimate.NewTME(repo))
		exec, err := runDLT(core.DefaultDLTExecConfig(), sched, repo, specs)
		if err != nil {
			return nil, err
		}
		half := exec.Engine().Now() / 2
		minP := 1.0
		attained := 0
		for _, j := range exec.Jobs() {
			p := metrics.DLTProgressAt(j, half)
			if p < minP {
				minP = p
			}
			if j.Status() == core.StatusAttainedStop && j.EndTime() <= half {
				attained++
			}
		}
		label := fmt.Sprintf("T=%.0f%%", T*100)
		res.Values[label+"/min-progress"] = minP
		res.Values[label+"/attained"] = float64(attained)
		fmt.Fprintf(&b, "%8s %22.2f %22d %14.0f\n", label, minP, attained, exec.Engine().Now().Seconds())
	}
	res.Text = b.String()
	return res, nil
}
