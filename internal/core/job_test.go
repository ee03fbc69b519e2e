package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rotary/internal/aqp"
	"rotary/internal/cluster"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/sim"
)

func mkTrainer(t *testing.T, model string, lr float64) *dlt.Job {
	t.Helper()
	job, err := dlt.NewJob(dlt.Config{
		Model: model, Dataset: "cifar10", BatchSize: 32,
		Optimizer: "sgd", LR: lr, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestDLTJobRuntimeProgress(t *testing.T) {
	crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 10, Unit: criteria.Epochs})
	j, err := NewDLTJob("r", mkTrainer(t, "mobilenet", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.AttainmentProgress(nil); got != 0 {
		t.Errorf("fresh runtime progress %v, want 0", got)
	}
	for i := 0; i < 5; i++ {
		j.Trainer().TrainEpoch()
		j.epochs++
	}
	// Algorithm 4: φ = e*/e for runtime criteria → 5/10.
	if got := j.AttainmentProgress(nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("runtime progress %v, want 0.5", got)
	}
	if j.CriteriaMet() {
		t.Error("runtime criterion met early")
	}
	for i := 0; i < 5; i++ {
		j.Trainer().TrainEpoch()
		j.epochs++
	}
	if !j.CriteriaMet() {
		t.Error("runtime criterion not met at target")
	}
	if j.DeadlineExpired() {
		t.Error("runtime criteria never 'expire' — expiry is completion")
	}
}

func TestDLTJobAccuracyProgressUsesTEE(t *testing.T) {
	crit, _ := criteria.NewAccuracy("ACC", 0.85, criteria.Deadline{Value: 30, Unit: criteria.Epochs})
	j, err := NewDLTJob("a", mkTrainer(t, "resnet-18", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	// Repository with one exact-match record reaching 0.85 at epoch 8.
	repo := estimate.NewRepository()
	repo.AddDLT(estimate.DLTRecord{
		ID: "h", Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01,
		Epochs: 8, AccCurve: []float64{0.3, 0.45, 0.57, 0.67, 0.74, 0.79, 0.83, 0.86},
	})
	tee := estimate.NewTEE(repo)
	for i := 0; i < 2; i++ {
		j.Trainer().TrainEpoch()
		j.epochs++
	}
	phi := j.AttainmentProgress(tee)
	// φ = e*/ê with ê near 8: expect roughly 2/8 and certainly well above
	// the conservative 2/30 fallback.
	if phi < 2.0/30+0.02 || phi > 0.6 {
		t.Errorf("accuracy progress %v, want ≈0.25", phi)
	}
	// Without any estimator: conservative fallback e*/e_max.
	if got := j.AttainmentProgress(nil); math.Abs(got-2.0/30) > 1e-9 {
		t.Errorf("fallback progress %v, want %v", got, 2.0/30)
	}
}

func TestDLTJobConvergenceBookkeeping(t *testing.T) {
	crit, _ := criteria.NewConvergence("ACC", 0.05, criteria.Deadline{Value: 40, Unit: criteria.Epochs})
	j, err := NewDLTJob("c", mkTrainer(t, "squeezenet", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	if j.CriteriaMet() {
		t.Error("met before converging")
	}
	for i := 0; i < 30 && j.convergedAtEpoch == 0; i++ {
		j.Trainer().TrainEpoch()
		j.epochs++
		if j.Trainer().Converged(crit.Threshold) {
			j.convergedAtEpoch = j.epochs
		}
	}
	if j.convergedAtEpoch == 0 {
		t.Fatal("never converged at delta 0.05")
	}
	if !j.CriteriaMet() {
		t.Error("converged job does not meet its criterion")
	}
	if got := j.AttainmentProgress(nil); got != 1 {
		t.Errorf("converged progress %v, want 1", got)
	}
}

func TestDLTJobWallTimeDeadlineToEpochs(t *testing.T) {
	crit, _ := criteria.NewAccuracy("ACC", 0.9, criteria.Deadline{Value: 1, Unit: criteria.Hours})
	j, err := NewDLTJob("w", mkTrainer(t, "mobilenet", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(j.Trainer().StepsPerEpoch()) * j.Trainer().StepSeconds()
	want := int(3600 / per)
	if got := j.MaxEpochs(); got != want {
		t.Errorf("MaxEpochs = %d, want %d", got, want)
	}
}

func TestDLTProgressWithinBounds(t *testing.T) {
	check := func(seed uint64, epochs uint8) bool {
		crit, _ := criteria.NewAccuracy("ACC", 0.8, criteria.Deadline{Value: 20, Unit: criteria.Epochs})
		trainer, err := dlt.NewJob(dlt.Config{
			Model: "vgg-11", Dataset: "cifar10", BatchSize: 8,
			Optimizer: "adam", LR: 0.001, Seed: seed,
		})
		if err != nil {
			return false
		}
		j, err := NewDLTJob("p", trainer, crit)
		if err != nil {
			return false
		}
		for i := 0; i < int(epochs)%25; i++ {
			trainer.TrainEpoch()
			j.epochs++
		}
		phi := j.AttainmentProgress(nil)
		return phi >= 0 && phi <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthExponentDetectsSuperlinearAccrual(t *testing.T) {
	linear := &cellTrack{env: estimate.NewEnvelope(4)}
	quartic := &cellTrack{env: estimate.NewEnvelope(4)}
	for i := 1; i <= 8; i++ {
		f := float64(i) / 10
		linear.observe(f, 100*f)
		quartic.observe(f, 100*math.Pow(f, 4))
	}
	kl, kq := linear.growthExponent(), quartic.growthExponent()
	if math.Abs(kl-1) > 0.05 {
		t.Errorf("linear growth exponent %v, want ≈1", kl)
	}
	if kq < 3.5 {
		t.Errorf("quartic growth exponent %v, want ≈4", kq)
	}
	// The scaled estimate f^k must be far below f for the quartic cell.
	fresh := &cellTrack{env: estimate.NewEnvelope(4)}
	if got := fresh.growthExponent(); got != 1 {
		t.Errorf("no-data exponent %v, want the uniform default 1", got)
	}
}

// scriptedQuery serves a fixed snapshot at a fixed data fraction; the
// rest of aqp.OnlineQuery is never called by observeEpoch.
type scriptedQuery struct {
	aqp.OnlineQuery
	snap aqp.Snapshot
	frac float64
}

func (q *scriptedQuery) Snapshot() aqp.Snapshot          { return q.snap }
func (q *scriptedQuery) DataProgress() float64           { return q.frac }
func (q *scriptedQuery) Accuracy() float64               { return 0 }
func (q *scriptedQuery) AccuracyOf(aqp.Snapshot) float64 { return 0 }

// EstimatedAccuracy averages per-cell estimates over hundreds of groups.
// The sum must not follow map iteration order, which Go randomizes per
// loop: one job state, evaluated again and again, gives one bit pattern.
func TestEstimatedAccuracyIsOneBitPattern(t *testing.T) {
	q := &scriptedQuery{snap: aqp.Snapshot{
		Specs:  []aqp.AggSpec{{Name: "s", Kind: aqp.Sum}, {Name: "a", Kind: aqp.Avg}},
		Groups: map[string][]float64{},
	}}
	j, err := NewAQPJob(AQPJobConfig{ID: "many", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(3)
	for epoch := 1; epoch <= 6; epoch++ {
		q.frac = float64(epoch) / 10
		for g := 0; g < 400; g++ {
			name := fmt.Sprintf("g%03d", g)
			grow := 1 + 3*r.Float64()
			q.snap.Groups[name] = []float64{1e3 * math.Pow(q.frac, grow), 50 + r.Float64()}
		}
		j.observeEpoch(sim.Time(epoch))
	}
	want := math.Float64bits(j.EstimatedAccuracy())
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(j.EstimatedAccuracy()); got != want {
			t.Fatalf("evaluation %d: %#x, first evaluation %#x", i, got, want)
		}
	}
}

func TestJobStatusStringsAndTerminal(t *testing.T) {
	for s, want := range map[JobStatus]string{
		StatusPending: "pending", StatusRunning: "running",
		StatusAttainedStop: "attained", StatusConvergedStop: "converged",
		StatusExpired: "expired",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", int(s), s.String())
		}
	}
	if StatusPending.Terminal() || StatusRunning.Terminal() {
		t.Error("live status marked terminal")
	}
	if !StatusAttainedStop.Terminal() || !StatusExpired.Terminal() {
		t.Error("final status not marked terminal")
	}
}

func TestRotaryDLTOrderingFairnessVsEfficiency(t *testing.T) {
	mk := func(id string, epochs int) *DLTJob {
		crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 10, Unit: criteria.Epochs})
		j, err := NewDLTJob(id, mkTrainer(t, "mobilenet", 0.01), crit)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			j.Trainer().TrainEpoch()
			j.epochs++
		}
		return j
	}
	behind := mk("behind", 1) // φ = 0.1
	ahead := mk("ahead", 8)   // φ = 0.8
	ctx := func() *DLTContext {
		return &DLTContext{
			Pending:  []*DLTJob{behind, ahead},
			FreeGPUs: []cluster.GPU{{ID: 0, MemMB: 8192}},
		}
	}
	fairness := NewRotaryDLT(1.0, nil, nil)
	fairness.TrialFirst = false
	if p := fairness.Place(ctx()); len(p) != 1 || p[0].Job.ID() != "behind" {
		t.Errorf("fairness placed %v, want behind", p)
	}
	efficiency := NewRotaryDLT(0.0, nil, nil)
	efficiency.TrialFirst = false
	if p := efficiency.Place(ctx()); len(p) != 1 || p[0].Job.ID() != "ahead" {
		t.Errorf("efficiency placed %v, want ahead", p)
	}
	// Adaptive at T=50%: "behind" is under the threshold, so the policy is
	// still fairness-like.
	adaptive := NewRotaryDLT(0.5, nil, nil)
	adaptive.TrialFirst = false
	if p := adaptive.Place(ctx()); len(p) != 1 || p[0].Job.ID() != "behind" {
		t.Errorf("adaptive under threshold placed %v, want behind", p)
	}
}

func TestRotaryDLTTrialFirst(t *testing.T) {
	crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 10, Unit: criteria.Epochs})
	fresh, err := NewDLTJob("fresh", mkTrainer(t, "mobilenet", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := NewDLTJob("ran", mkTrainer(t, "mobilenet", 0.01), crit)
	if err != nil {
		t.Fatal(err)
	}
	ran.Trainer().TrainEpoch()
	ran.epochs = 9 // nearly done: highest φ under efficiency
	sched := NewRotaryDLT(0.0, nil, nil)
	p := sched.Place(&DLTContext{
		Pending:  []*DLTJob{ran, fresh},
		FreeGPUs: []cluster.GPU{{ID: 0, MemMB: 8192}},
	})
	if len(p) != 1 || p[0].Job.ID() != "fresh" {
		t.Errorf("trial phase did not run the fresh job first: %v", p)
	}
}
