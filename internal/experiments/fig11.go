package experiments

import (
	"fmt"
	"strings"

	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/metrics"
	"rotary/internal/workload"
)

// fig11Specs is the 8-job micro-benchmark of §V-B3: five CV jobs plus
// job 4 (BERT), job 5 (Bi-LSTM) and job 6 (LSTM), all with accuracy-
// oriented criteria. The NLP jobs can reach their criteria in a handful
// of epochs — when the epoch estimate is reliable they are triggered
// right after the trial phase and complete early.
func fig11Specs(seed uint64) ([]workload.DLTSpec, error) {
	var firstErr error
	mk := func(i int, model, dataset string, batch int, opt string, lr, acc float64, maxEpochs int) workload.DLTSpec {
		crit, err := criteria.NewAccuracy("ACC", acc,
			criteria.Deadline{Value: float64(maxEpochs), Unit: criteria.Epochs})
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: fig11 job %d criteria: %w", i, err)
		}
		return workload.DLTSpec{
			ID: fmt.Sprintf("job%d-%s", i, model),
			Config: dlt.Config{
				Model: model, Dataset: dataset, BatchSize: batch,
				Optimizer: opt, LR: lr, Seed: seed ^ uint64(i)*0x77,
			},
			Criteria: crit,
		}
	}
	specs := []workload.DLTSpec{
		mk(0, "resnet-18", "cifar10", 32, "sgd", 0.01, 0.88, 25),
		mk(1, "mobilenet", "cifar10", 16, "sgd", 0.01, 0.85, 25),
		mk(2, "vgg-11", "cifar10", 32, "momentum", 0.01, 0.85, 25),
		mk(3, "densenet-121", "cifar10", 16, "sgd", 0.01, 0.88, 30),
		mk(4, "bert-mini", "imdb", 128, "adam", 0.001, 0.80, 20),
		mk(5, "bilstm", "imdb", 64, "adam", 0.001, 0.82, 20),
		mk(6, "lstm", "udtreebank", 64, "adam", 0.001, 0.80, 20),
		mk(7, "shufflenet", "cifar10", 8, "sgd", 0.01, 0.80, 25),
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return specs, nil
}

// Fig11Case is one arm of the epoch-estimation micro-benchmark.
type Fig11Case struct {
	Label string
	// EndSecs[i] is job i's terminal virtual time.
	EndSecs []float64
	// NLPMeanEndSecs averages jobs 4-6 (the estimation-sensitive jobs).
	NLPMeanEndSecs float64
	Gantt          string
}

// Fig11Result compares efficiency Rotary-DLT with reliable vs erroneous
// training-epoch estimation (the NLP history stripped from the
// repository).
type Fig11Result struct {
	Reliable  Fig11Case
	Erroneous Fig11Case
	Text      string
}

// Fig11 regenerates Fig. 11a/11b.
func Fig11(cfg Config) (*Fig11Result, error) {
	specs, err := fig11Specs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	run := func(stripNLP bool, label string) (Fig11Case, error) {
		repo := estimate.NewRepository()
		if err := workload.SeedDLTHistory(repo, 60, 30, cfg.Seed); err != nil {
			return Fig11Case{}, err
		}
		// The paper's premise is that the repository held history relevant
		// to these jobs before the NLP records were removed; seed one
		// completed sibling run per benchmark configuration so the
		// "reliable" arm's estimates are actually reliable.
		for i, spec := range specs {
			sibling := spec.Config
			sibling.Seed ^= 0x5ca1ab1e
			trainer, err := dlt.NewJob(sibling)
			if err != nil {
				return Fig11Case{}, err
			}
			var total float64
			for trainer.EpochsTrained() < 30 {
				acc, secs := trainer.TrainEpoch()
				total += secs
				if acc >= spec.Criteria.Threshold {
					break
				}
			}
			sp := trainer.Spec()
			repo.AddDLT(estimate.DLTRecord{
				ID: fmt.Sprintf("hist-fig11-%d", i), Model: sibling.Model, Family: sp.Family,
				Dataset: sibling.Dataset, ParamsM: sp.ParamsM, BatchSize: sibling.BatchSize,
				Optimizer: sibling.Optimizer, LR: sibling.LR,
				Epochs: trainer.EpochsTrained(), AccCurve: trainer.AccuracyHistory(),
				PeakMemMB: trainer.PeakMemoryMB(),
				EpochSecs: total / float64(trainer.EpochsTrained()),
			})
		}
		if stripNLP {
			repo.RemoveDLT(func(rec estimate.DLTRecord) bool { return rec.Dataset == "cifar10" })
		}
		sched, err := cliutil.DLTPolicies.New("efficiency", repo)
		if err != nil {
			return Fig11Case{}, err
		}
		exec, err := runDLT(core.DefaultDLTExecConfig(), sched, repo, specs)
		if err != nil {
			return Fig11Case{}, err
		}
		jobs := exec.Jobs()
		c := Fig11Case{Label: label, EndSecs: make([]float64, len(jobs))}
		for i, j := range jobs {
			c.EndSecs[i] = j.EndTime().Seconds()
		}
		c.NLPMeanEndSecs = (c.EndSecs[4] + c.EndSecs[5] + c.EndSecs[6]) / 3
		c.Gantt = metrics.RenderGantt(jobs, 4, exec.Engine().Now(), 48)
		return c, nil
	}

	reliable, err := run(false, "reliable estimation")
	if err != nil {
		return nil, err
	}
	erroneous, err := run(true, "erroneous estimation (NLP history removed)")
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Fig 11: job placements under efficiency Rotary-DLT\n\n")
	fmt.Fprintf(&b, "(a) %s — NLP jobs 4-6 mean completion %.0fs\n%s\n", reliable.Label, reliable.NLPMeanEndSecs, reliable.Gantt)
	fmt.Fprintf(&b, "(b) %s — NLP jobs 4-6 mean completion %.0fs\n%s\n", erroneous.Label, erroneous.NLPMeanEndSecs, erroneous.Gantt)
	return &Fig11Result{Reliable: reliable, Erroneous: erroneous, Text: b.String()}, nil
}
