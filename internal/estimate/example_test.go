package estimate_test

import (
	"fmt"

	"rotary/internal/estimate"
)

// The §IV-A joint fit gives each real-time point and the combined
// historical data equal weight, so the fit tracks the live job more and
// more as observations accumulate.
func ExampleJointFit() {
	historical := []estimate.Point{{X: 0, Y: 0.2}, {X: 1, Y: 0.2}} // flat history
	realtime := []estimate.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}       // steep reality
	for m := 0; m <= 2; m++ {
		line := estimate.JointFit(historical, realtime[:m])
		fmt.Printf("realtime points=%d slope=%.3f\n", m, line.Slope)
	}
	// Output:
	// realtime points=0 slope=0.000
	// realtime points=1 slope=0.133
	// realtime points=2 slope=0.667
}

// The envelope function declares convergence once a window of recent
// aggregation results stops moving (§IV-A).
func ExampleEnvelope() {
	env := estimate.NewEnvelope(3)
	for _, v := range []float64{10, 20, 30, 31, 31.2, 31.2} {
		env.Observe(v)
		fmt.Printf("after %.1f: ratio=%.2f converged=%v\n", v, env.Ratio(), env.Converged(0.98))
	}
	// Output:
	// after 10.0: ratio=0.00 converged=false
	// after 20.0: ratio=0.50 converged=false
	// after 30.0: ratio=0.33 converged=false
	// after 31.0: ratio=0.65 converged=false
	// after 31.2: ratio=0.96 converged=false
	// after 31.2: ratio=0.99 converged=true
}

// Similarity is the paper's model-size metric: 1 − |x−y| / max(x, y).
func ExampleSimilarity() {
	fmt.Printf("%.2f %.2f %.2f\n",
		estimate.Similarity(11.7, 11.7),
		estimate.Similarity(11.7, 21.8),
		estimate.Similarity(0.06, 23.8))
	// Output: 1.00 0.54 0.00
}

// TEE predicts epochs-to-accuracy from similar historical jobs before the
// job has produced any real-time results.
func ExampleTEE() {
	repo := estimate.NewRepository()
	repo.AddDLT(estimate.DLTRecord{
		ID: "prev", Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01,
		Epochs:   8,
		AccCurve: []float64{0.30, 0.45, 0.57, 0.67, 0.74, 0.79, 0.83, 0.86},
	})
	tee := estimate.NewTEE(repo)
	q := estimate.DLTQuery{Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01}
	epochs, ok := tee.EstimateEpochs(q, nil, 0.85)
	fmt.Println(epochs, ok)
	// Output: 8 true
}
