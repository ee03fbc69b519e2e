package dlt

import (
	"encoding/json"
	"fmt"
	"math"

	"rotary/internal/sim"
)

// Config fully determines a training job's behaviour: the same Config and
// seed reproduce the same accuracy curve, epoch times, and memory.
type Config struct {
	Model     string  `json:"model"`
	Dataset   string  `json:"dataset"`
	BatchSize int     `json:"batch_size"`
	Optimizer string  `json:"optimizer"`
	LR        float64 `json:"lr"`
	Seed      uint64  `json:"seed"`
}

// Validate checks the configuration against the zoo and Table II spaces.
func (c Config) Validate() error {
	spec, err := Lookup(c.Model)
	if err != nil {
		return err
	}
	ds, err := LookupDataset(c.Dataset)
	if err != nil {
		return err
	}
	if spec.Domain != ds.Domain {
		return fmt.Errorf("dlt: model %s (%s) cannot train on dataset %s (%s)",
			c.Model, spec.Domain, c.Dataset, ds.Domain)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("dlt: batch size %d must be positive", c.BatchSize)
	}
	if c.LR <= 0 {
		return fmt.Errorf("dlt: learning rate %g must be positive", c.LR)
	}
	return nil
}

// hyperQuality scores the (optimizer, lr) pair in (0, 1]: 1 at the
// optimizer's sweet spot, decaying with log-distance from it. This is
// what makes Table II's randomized hyperparameters produce the spread of
// convergence behaviours the survey reports — some trials converge high
// and fast, some plateau low (the unpromising trials the intro's
// hyperparameter-optimization scenario wants preempted).
func hyperQuality(optimizer string, lr float64) float64 {
	best := 0.01
	switch optimizer {
	case "adam", "adagrad":
		best = 0.001
	}
	d := math.Log10(lr) - math.Log10(best)
	return math.Exp(-0.45 * d * d)
}

// Curve is a deterministic learning curve: evaluation accuracy after each
// completed training epoch.
type Curve struct {
	ceiling float64
	rate    float64
	start   float64
	noise   []float64 // pre-drawn per-epoch noise, extended on demand
	seed    uint64
}

// NewCurve derives the learning curve of a configuration.
func NewCurve(c Config) (*Curve, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	spec, _ := Lookup(c.Model)
	q := hyperQuality(c.Optimizer, c.LR)
	ceiling := spec.BaseAccuracy * (0.55 + 0.45*q)
	// Smaller batches take more optimization steps per epoch, converging
	// in fewer epochs (the small-batch study the paper cites).
	ref := 32.0
	if spec.Domain == NLP {
		ref = 128.0
	}
	rate := spec.BaseRate * (0.35 + 0.65*q) * math.Pow(ref/float64(c.BatchSize), 0.30)
	start := 0.1 // random-guess CIFAR-10 accuracy
	if spec.Domain == NLP {
		start = 0.5
	}
	if spec.PreTrained {
		start = ceiling * 0.93
	}
	return &Curve{ceiling: ceiling, rate: rate, start: start, seed: c.Seed}, nil
}

// Ceiling reports the curve's asymptotic accuracy.
func (c *Curve) Ceiling() float64 { return c.ceiling }

// Rate reports the curve's exponential rate per epoch.
func (c *Curve) Rate() float64 { return c.rate }

// At reports the evaluation accuracy after epoch completed epochs (At(0)
// is the untrained accuracy). The saturating-exponential form is the
// diminishing-returns progress curve of Fig. 1b.
func (c *Curve) At(epoch int) float64 {
	if epoch < 0 {
		epoch = 0
	}
	mean := c.ceiling - (c.ceiling-c.start)*math.Exp(-c.rate*float64(epoch))
	acc := mean + c.noiseAt(epoch)
	if acc < 0 {
		acc = 0
	}
	if acc > 0.999 {
		acc = 0.999
	}
	return acc
}

func (c *Curve) noiseAt(epoch int) float64 {
	if epoch == 0 {
		return 0
	}
	for len(c.noise) <= epoch {
		r := sim.NewRand(c.seed ^ uint64(len(c.noise))*0x9e37)
		c.noise = append(c.noise, r.Norm(0, 0.004))
	}
	return c.noise[epoch]
}

// EpochsToAccuracy reports the first epoch at which the noiseless curve
// reaches target accuracy, or (0, false) if the ceiling is below target.
// This is the oracle TEE is benchmarked against.
func (c *Curve) EpochsToAccuracy(target float64) (int, bool) {
	if target >= c.ceiling {
		return 0, false
	}
	if target <= c.start {
		return 0, true
	}
	e := math.Log((c.ceiling-c.start)/(c.ceiling-target)) / c.rate
	return int(math.Ceil(e)), true
}

// Job is a running (or checkpointed) training job on the simulator. It is
// the DLT analogue of aqp.Running: Rotary-DLT drives it one epoch at a
// time and reads the accuracy series.
type Job struct {
	cfg    Config
	spec   ModelSpec
	ds     DatasetSpec
	curve  *Curve
	epochs int
	accs   []float64 // accs[i] = accuracy after epoch i+1
	warmed bool      // CUDA warm-up consumed (first step of first epoch)
}

// NewJob builds a training job from a validated configuration.
func NewJob(cfg Config) (*Job, error) {
	curve, err := NewCurve(cfg)
	if err != nil {
		return nil, err
	}
	spec, _ := Lookup(cfg.Model)
	ds, _ := LookupDataset(cfg.Dataset)
	return &Job{cfg: cfg, spec: spec, ds: ds, curve: curve}, nil
}

// Config returns the job's configuration.
func (j *Job) Config() Config { return j.cfg }

// Spec returns the model spec.
func (j *Job) Spec() ModelSpec { return j.spec }

// EpochsTrained reports the number of completed training epochs.
func (j *Job) EpochsTrained() int { return j.epochs }

// Accuracy reports the latest evaluation accuracy (the untrained accuracy
// before the first epoch).
func (j *Job) Accuracy() float64 {
	if j.epochs == 0 {
		return j.curve.At(0)
	}
	return j.accs[j.epochs-1]
}

// AccuracyHistory returns the (epoch, accuracy) series observed so far;
// index i holds the accuracy after epoch i+1.
func (j *Job) AccuracyHistory() []float64 {
	out := make([]float64, len(j.accs))
	copy(out, j.accs)
	return out
}

// StepsPerEpoch reports the optimization steps in one epoch.
func (j *Job) StepsPerEpoch() int {
	steps := (j.ds.TrainExamples + j.cfg.BatchSize - 1) / j.cfg.BatchSize
	if steps < 1 {
		steps = 1
	}
	return steps
}

// StepSeconds reports the steady-state wall time of one optimization step
// on the simulated GPU: a fixed launch overhead plus compute proportional
// to model size and batch size. Sequence models pay a per-token cost that
// makes their large-batch steps much heavier than CV steps, so NLP and CV
// epochs land in the same wall-time range (as they do on the paper's
// RTX 2080 testbed).
func (j *Job) StepSeconds() float64 {
	ref := 32.0
	coeff := 0.0033
	if j.spec.Domain == NLP {
		ref = 128.0
		coeff = 0.060
	}
	return 0.015 + coeff*j.spec.ParamsM*math.Pow(float64(j.cfg.BatchSize)/ref, 0.7)
}

// WarmupSeconds is the extra cost of the very first training step of a
// freshly placed job (CUDA context creation and kernel autotuning). TTR
// discards the first step because of it (§IV-B).
const WarmupSeconds = 2.0

// TrainEpoch advances the job by one epoch and returns the new evaluation
// accuracy and the epoch's wall time in (virtual) seconds. The first
// epoch after construction or Restore pays the warm-up once.
func (j *Job) TrainEpoch() (acc float64, wallSecs float64) {
	steps := j.StepsPerEpoch()
	wallSecs = float64(steps) * j.StepSeconds()
	if !j.warmed {
		wallSecs += WarmupSeconds
		j.warmed = true
	}
	j.epochs++
	acc = j.curve.At(j.epochs)
	j.accs = append(j.accs, acc)
	return acc, wallSecs
}

// Converged reports whether the last two evaluation accuracies differ by
// less than delta — the convergence-oriented completion check.
func (j *Job) Converged(delta float64) bool {
	if len(j.accs) < 2 {
		return false
	}
	d := j.accs[len(j.accs)-1] - j.accs[len(j.accs)-2]
	if d < 0 {
		d = -d
	}
	return d < delta
}

// PeakMemoryMB reports the job's peak GPU memory: parameters, gradients
// and optimizer state (scaling with model size) plus activations (scaling
// with batch size) plus a framework baseline. This is the ground truth the
// TME batch-size/memory curve approximates.
func (j *Job) PeakMemoryMB() float64 {
	return PeakMemoryMB(j.spec, j.cfg.BatchSize, j.cfg.Optimizer)
}

// PeakMemoryMB is the memory model shared by jobs and the TME oracle.
// Convolutional models carry much heavier per-sample activation memory
// than sequence models, which is why Table II pairs CV models with small
// batches and NLP models with large ones; with the shrunk variants every
// configuration fits the testbed's 8 GB devices.
func PeakMemoryMB(spec ModelSpec, batchSize int, optimizer string) float64 {
	stateFactor := 12.0 // params + grads + momentum
	if optimizer == "adam" {
		stateFactor = 16.0 // two moment buffers
	}
	actCoeff := 14.0 // MB per sample per params^0.72, CV
	if spec.Domain == NLP {
		actCoeff = 1.8
	}
	activationsPerSample := actCoeff * math.Pow(spec.ParamsM, 0.72)
	return 180 + spec.ParamsM*stateFactor + float64(batchSize)*activationsPerSample
}

// jobState is the serialized checkpoint of a Job.
type jobState struct {
	Config Config    `json:"config"`
	Epochs int       `json:"epochs"`
	Accs   []float64 `json:"accs"`
}

// Checkpoint serializes the job (config, epochs, accuracy history). After
// Restore the next epoch pays the warm-up again — reloading a checkpoint
// onto a GPU re-creates the CUDA context.
func (j *Job) Checkpoint() ([]byte, error) {
	return json.Marshal(jobState{Config: j.cfg, Epochs: j.epochs, Accs: j.accs})
}

// Restore replaces the job state with a checkpoint.
func (j *Job) Restore(data []byte) error {
	var st jobState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dlt: restore: %w", err)
	}
	if st.Config != j.cfg {
		return fmt.Errorf("dlt: restore: checkpoint config %+v does not match job %+v", st.Config, j.cfg)
	}
	if st.Epochs != len(st.Accs) {
		return fmt.Errorf("dlt: restore: %d epochs but %d accuracies", st.Epochs, len(st.Accs))
	}
	j.epochs = st.Epochs
	j.accs = st.Accs
	j.warmed = false
	return nil
}
