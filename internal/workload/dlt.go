package workload

import (
	"fmt"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

// Table II parameter spaces (the survey-derived distributions).
var (
	// ConvergenceDeltas are the delta-accuracy choices.
	ConvergenceDeltas = []float64{0.05, 0.03, 0.01, 0.005, 0.003, 0.001, 0.0005, 0.0003, 0.0001, 0.00005, 0.00003, 0.00001}
	// AccuracyTargets are the final-accuracy choices.
	AccuracyTargets = []float64{0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90, 0.92}
	// RuntimeEpochsScratch and RuntimeEpochsPretrained are the runtime-
	// criteria epoch choices.
	RuntimeEpochsScratch    = []int{5, 10, 30, 50, 100}
	RuntimeEpochsPretrained = []int{1, 2, 3, 4, 5}
	// MaxEpochChoices bound accuracy/convergence criteria.
	MaxEpochChoices = []int{1, 5, 10, 15, 20, 25, 30}
)

// criteriaMix is the convergence/accuracy/runtime proportion (Table II:
// 60/20/20).
var criteriaMix = []float64{0.60, 0.20, 0.20}

// pretrainedFraction is the share of fine-tuning jobs.
const pretrainedFraction = 0.2

// DLTSpec is one synthesized DLT job.
type DLTSpec struct {
	ID       string
	Config   dlt.Config
	Criteria criteria.Criteria
}

// DLTWorkloadConfig parameterizes Table II generation.
type DLTWorkloadConfig struct {
	// Jobs is the workload size.
	Jobs int
	// Seed drives every random choice.
	Seed uint64
}

// DefaultDLTWorkload is the Table II configuration.
func DefaultDLTWorkload(jobs int, seed uint64) DLTWorkloadConfig {
	if jobs <= 0 {
		jobs = 30
	}
	return DLTWorkloadConfig{Jobs: jobs, Seed: seed}
}

// GenerateDLT samples a Table II workload: model architecture and the
// criteria mix follow the survey distributions; hyperparameters and
// criteria parameters are uniform over their spaces. A criteria
// construction failure (a malformed parameter space) is reported, not
// panicked, so library callers can handle it.
func GenerateDLT(cfg DLTWorkloadConfig) ([]DLTSpec, error) {
	r := sim.NewRand(cfg.Seed ^ 0xd17)
	if cfg.Jobs <= 0 {
		cfg.Jobs = 30
	}
	specs := make([]DLTSpec, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		kind := r.PickWeighted(criteriaMix)
		pretrained := r.Float64() < pretrainedFraction

		var model string
		if pretrained {
			model = sim.Pick(r, dlt.PreTrainedModels())
		} else {
			// Pick a domain first (surveyed researchers skew CV), then an
			// architecture.
			domain := dlt.CV
			if r.Float64() < 0.3 {
				domain = dlt.NLP
			}
			model = sim.Pick(r, dlt.ScratchModels(domain))
		}
		spec, _ := dlt.Lookup(model)
		var dataset string
		var batch int
		if spec.Domain == dlt.CV {
			dataset = "cifar10"
			batch = sim.Pick(r, dlt.BatchSizesCV)
		} else {
			dataset = sim.Pick(r, dlt.DatasetsFor(dlt.NLP))
			batch = sim.Pick(r, dlt.BatchSizesNLP)
		}
		jobCfg := dlt.Config{
			Model:     model,
			Dataset:   dataset,
			BatchSize: batch,
			Optimizer: sim.Pick(r, dlt.Optimizers),
			LR:        sim.Pick(r, dlt.LearningRates),
			Seed:      cfg.Seed ^ uint64(i)*0x1009,
		}

		var crit criteria.Criteria
		var err error
		switch kind {
		case 0: // convergence-oriented
			crit, err = criteria.NewConvergence("ACC",
				sim.Pick(r, ConvergenceDeltas),
				criteria.Deadline{Value: float64(sim.Pick(r, MaxEpochChoices)), Unit: criteria.Epochs})
		case 1: // accuracy-oriented
			crit, err = criteria.NewAccuracy("ACC",
				sim.Pick(r, AccuracyTargets),
				criteria.Deadline{Value: float64(sim.Pick(r, MaxEpochChoices)), Unit: criteria.Epochs})
		default: // runtime-oriented
			epochs := RuntimeEpochsScratch
			if pretrained {
				epochs = RuntimeEpochsPretrained
			}
			crit, err = criteria.NewRuntime(
				criteria.Deadline{Value: float64(sim.Pick(r, epochs)), Unit: criteria.Epochs})
		}
		if err != nil {
			return nil, fmt.Errorf("workload: DLT job %d criteria: %w", i, err)
		}
		specs = append(specs, DLTSpec{
			ID:       fmt.Sprintf("dlt-%02d-%s", i, model),
			Config:   jobCfg,
			Criteria: crit,
		})
	}
	return specs, nil
}

// BuildDLTJob turns a spec into a runnable arbitrated job.
func BuildDLTJob(spec DLTSpec) (*core.DLTJob, error) {
	trainer, err := dlt.NewJob(spec.Config)
	if err != nil {
		return nil, err
	}
	return core.NewDLTJob(spec.ID, trainer, spec.Criteria)
}

// SeedDLTHistory populates a repository with nJobs completed training
// runs sampled from the Table II spaces — the historical jobs Rotary-DLT
// "stores … in a repository so that the system can provide more accurate
// estimates" (§IV-B). Each history job trains to its curve's plateau
// (capped at maxEpochs) entirely off the arbitration path.
func SeedDLTHistory(repo *estimate.Repository, nJobs, maxEpochs int, seed uint64) error {
	if maxEpochs <= 0 {
		maxEpochs = 30
	}
	r := sim.NewRand(seed ^ 0x5eed)
	for i := 0; i < nJobs; i++ {
		domain := dlt.CV
		if r.Float64() < 0.35 {
			domain = dlt.NLP
		}
		model := sim.Pick(r, dlt.ScratchModels(domain))
		spec, _ := dlt.Lookup(model)
		var dataset string
		var batch int
		if spec.Domain == dlt.CV {
			dataset = "cifar10"
			batch = sim.Pick(r, dlt.BatchSizesCV)
		} else {
			dataset = sim.Pick(r, dlt.DatasetsFor(dlt.NLP))
			batch = sim.Pick(r, dlt.BatchSizesNLP)
		}
		cfg := dlt.Config{
			Model:     model,
			Dataset:   dataset,
			BatchSize: batch,
			Optimizer: sim.Pick(r, dlt.Optimizers),
			LR:        sim.Pick(r, dlt.LearningRates),
			Seed:      seed ^ uint64(i)*0x2003,
		}
		job, err := dlt.NewJob(cfg)
		if err != nil {
			return err
		}
		var totalSecs float64
		for e := 0; e < maxEpochs; e++ {
			_, secs := job.TrainEpoch()
			totalSecs += secs
			if job.Converged(0.001) {
				break
			}
		}
		epochs := job.EpochsTrained()
		repo.AddDLT(estimate.DLTRecord{
			ID:        fmt.Sprintf("hist-dlt-%03d-%s", i, model),
			Model:     cfg.Model,
			Family:    spec.Family,
			Dataset:   cfg.Dataset,
			ParamsM:   spec.ParamsM,
			BatchSize: cfg.BatchSize,
			Optimizer: cfg.Optimizer,
			LR:        cfg.LR,
			Epochs:    epochs,
			AccCurve:  job.AccuracyHistory(),
			PeakMemMB: job.PeakMemoryMB(),
			EpochSecs: totalSecs / float64(epochs),
		})
	}
	return nil
}
