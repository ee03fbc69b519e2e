package rotary_test

// One benchmark per table and figure of the paper's evaluation section,
// plus the DESIGN.md ablations. Each benchmark regenerates its experiment
// end-to-end (workload synthesis → arbitration over virtual time →
// metrics) and reports the experiment's headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` both times the harness
// and prints the reproduced numbers. cmd/rotary-bench renders the same
// experiments as full-text reports.

import (
	"sync"
	"testing"

	"rotary/internal/aqp"
	"rotary/internal/experiments"
	"rotary/internal/stream"
	"rotary/internal/tpch"
)

// benchConfig mirrors the paper's 30-job, 3-run protocol at a reduced
// scale factor (virtual-time costs are SF-invariant; see DESIGN.md).
func benchConfig() experiments.Config {
	return experiments.Config{SF: 0.01, Seed: 1, Runs: 3, AQPJobs: 30, DLTJobs: 30}
}

// quickConfig is for the single-workload experiments.
func quickConfig() experiments.Config {
	cfg := benchConfig()
	cfg.Runs = 1
	return cfg
}

func BenchmarkFig1aProgressCurves(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			q19 := res.Series["q19@60s"]
			b.ReportMetric(q19[0].DataFrac*100, "q19-%data@60s")
		}
	}
}

func BenchmarkFig1bLearningCurves(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Curves["resnet-18"][29]*100, "resnet18-acc@30ep-%")
		}
	}
}

func BenchmarkTable1AQPWorkload(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Specs)), "jobs")
		}
	}
}

func BenchmarkFig6AQPAttainment(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Reports["rotary-aqp"].AttainedByClass["total"], "rotary-attained")
			b.ReportMetric(res.Reports["relaqs"].AttainedByClass["total"], "relaqs-attained")
		}
	}
}

func BenchmarkFig7FalseAttainmentWaiting(b *testing.B) {
	cfg := quickConfig() // isolated-runtime measurement is the slow part
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Reports["rotary-aqp"].FalseAttainments, "rotary-false-attain")
			b.ReportMetric(res.Reports["rotary-aqp"].AvgWaitSecs, "rotary-wait-s")
		}
	}
}

func BenchmarkFig8SkewedWorkloads(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BySkew["heavy"]["rotary-aqp"].AttainedByClass["total"], "rotary-heavy-only")
		}
	}
}

func BenchmarkFig9EstimationSensitivity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Reports["rotary-aqp"].AttainedByClass["total"], "real-est-attained")
			b.ReportMetric(res.Reports["rotary-random-est"].AttainedByClass["total"], "random-est-attained")
		}
	}
}

func BenchmarkTable2DLTWorkload(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Specs)), "jobs")
		}
	}
}

func BenchmarkFig10DLTAttainment(b *testing.B) {
	cfg := quickConfig()
	cfg.DLTJobs = 24
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.SnapshotTimes) > 0 {
			idx := len(res.SnapshotTimes) / 3
			b.ReportMetric(res.Snapshots["rotary-fairness(T=100%)"][idx].Progress.Min, "fairness-min-prog")
			b.ReportMetric(float64(res.Snapshots["rotary-efficiency(T=0%)"][idx].Attained), "efficiency-attained")
		}
	}
}

func BenchmarkFig11EpochEstimationImpact(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Reliable.NLPMeanEndSecs, "reliable-nlp-end-s")
			b.ReportMetric(res.Erroneous.NLPMeanEndSecs, "erroneous-nlp-end-s")
		}
	}
}

func BenchmarkTable3Overhead(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.OverallRunSecs, "virtual-run-s(40jobs)")
			b.ReportMetric(float64(last.TEEOverhead.Microseconds()), "tee-overhead-us")
		}
	}
}

func BenchmarkAblationFixedEpochs(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationFixedEpochs(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["adaptive-epochs"], "adaptive-attained")
			b.ReportMetric(res.Values["fixed-epochs"], "fixed-attained")
		}
	}
}

func BenchmarkAblationMemoryBlind(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMemoryBlind(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["memory-aware"], "aware-attained")
			b.ReportMetric(res.Values["memory-blind"], "blind-attained")
		}
	}
}

func BenchmarkAblationEnvelopeWindow(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEnvelopeWindow(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["window=2"], "false-attain@w2")
			b.ReportMetric(res.Values["window=8"], "false-attain@w8")
		}
	}
}

func BenchmarkAblationEstimatorSources(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEstimatorSources(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["joint"]*1000, "joint-mae-milli")
			b.ReportMetric(res.Values["realtime-only"]*1000, "realtime-mae-milli")
		}
	}
}

func BenchmarkAblationThresholdSweep(b *testing.B) {
	cfg := quickConfig()
	cfg.DLTJobs = 20
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationThresholdSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["T=100%/min-progress"], "fairness-min-prog@half")
			b.ReportMetric(res.Values["T=0%/attained"], "efficiency-attained@half")
		}
	}
}

func BenchmarkAblationMaterialization(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationMaterialization(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["disk-only/makespan"], "disk-only-makespan-s")
			b.ReportMetric(res.Values["memory-tier/makespan"], "memory-tier-makespan-s")
		}
	}
}

func BenchmarkUnifiedArbitration(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Unified(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Attained["T=100%"]), "fairness-attained")
			b.ReportMetric(float64(res.Attained["T=0%"]), "efficiency-attained")
		}
	}
}

func BenchmarkAblationSwapOverhead(b *testing.B) {
	cfg := quickConfig()
	cfg.DLTJobs = 16
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSwapOverhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["rotary/penalty"], "rotary-swap-gpu-s")
			b.ReportMetric(res.Values["round-robin/penalty"], "rr-swap-gpu-s")
		}
	}
}

func BenchmarkAblationArrivalRate(b *testing.B) {
	cfg := quickConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationArrivalRate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Values["mean-arrival=80s/rotary"], "rotary-attained@80s")
			b.ReportMetric(res.Values["mean-arrival=80s/edf"], "edf-attained@80s")
		}
	}
}

// BenchmarkAQPEpoch times the raw AQP data path — a q1-style
// scan→filter→group-by epoch over a generated TPC-H lineitem stream — at
// the worker widths the executor grants (seq = width 1). The fact topic
// gets 64 partitions so every width has independent work. rows/s is the
// headline metric; the sub-benchmarks share one generated dataset.
// Parallel speedup only shows on multicore hardware, so nothing here
// asserts wall-clock ratios — the equivalence tests prove the widths
// compute identical results, this benchmark measures them.
func BenchmarkAQPEpoch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		width int
	}{
		{"seq", 1}, {"par-2", 2}, {"par-4", 4}, {"par-8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) { benchmarkAQPEpoch(b, bc.width) })
	}
}

// aqpEpochTopic is generated once and shared by all widths.
var (
	aqpEpochOnce  sync.Once
	aqpEpochTopic *stream.Topic[tpch.Lineitem]
)

func benchmarkAQPEpoch(b *testing.B, width int) {
	aqpEpochOnce.Do(func() {
		ds := tpch.Generate(0.05, 7)
		aqpEpochTopic = stream.NewShuffledTopic("lineitem", ds.Lineitems, 64, 7)
	})
	cutoff := tpch.MakeDate(1998, 9, 2)
	specs := []aqp.AggSpec{
		{Name: "sum_qty", Kind: aqp.Sum},
		{Name: "avg_price", Kind: aqp.Avg},
		{Name: "count_order", Kind: aqp.Count},
	}
	proc := aqp.Processor[tpch.Lineitem]{
		Process: func(rows []tpch.Lineitem, gt *aqp.GroupTable) {
			for i := range rows {
				l := &rows[i]
				if l.ShipDate > cutoff {
					continue
				}
				gt.Update(string([]byte{l.ReturnFlag, '|', l.LineStatus}),
					l.Quantity, l.ExtendedPrice, 1)
			}
		},
	}
	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := aqp.NewRunning("bench", stream.NewConsumer(aqpEpochTopic), specs, proc,
			aqp.CostModel{SecsPerRow: 1e-6})
		for {
			n, _ := q.ProcessBatch(1<<16, width)
			if n == 0 {
				break
			}
			rows += int64(n)
		}
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkAQPCheckpoint times the job checkpoint codec apart from the
// store's disk write, at the state a job carries ~16 % into its stream on
// the end-to-end benchmark's dataset (SF 0.02): q1 is a handful of groups
// in per-partition partials, q18 and q21 carry the large per-order aux
// state. encode is Checkpoint(); restore is Restore() into a live query.
// The bytes metric is the payload length.
func BenchmarkAQPCheckpoint(b *testing.B) {
	cat := tpch.NewCatalog(tpch.Generate(0.02, 1), 1)
	for _, name := range []string{"q1", "q18", "q21"} {
		q, err := cat.NewQuery(name)
		if err != nil {
			b.Fatal(err)
		}
		for q.DataProgress() < 0.16 {
			q.ProcessBatch(2000, 1)
		}
		cp, err := q.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(cp)), "bytes")
		})
		b.Run(name+"/restore", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := q.Restore(cp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(cp)), "bytes")
		})
	}
}
