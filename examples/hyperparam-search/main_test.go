package main

// Example pins the whole printed output — the arbiter, round-robin and
// successive-halving searches — so a change that moves any number this
// example prints fails `go test ./...`.
func Example() {
	main()
	// Output:
	// hyperparameter search: 16 trials of resnet-18, target 88% accuracy
	//
	// efficiency Rotary-DLT (prunes unpromising trials)
	//   first trial at 88% accuracy after 20 virtual minutes
	//   4/16 trials reached the target; best config: trial-14-adagrad-lr0.001 (89.7%)
	//   epochs spent: 342 total, 300 on losing trials
	//   makespan: 135 minutes
	//
	// round-robin baseline (every trial gets equal turns)
	//   first trial at 88% accuracy after 55 virtual minutes
	//   4/16 trials reached the target; best config: trial-14-adagrad-lr0.001 (89.7%)
	//   epochs spent: 342 total, 300 on losing trials
	//   makespan: 128 minutes
	//
	// successive-halving controller (hpo package)
	//   rung 0: 16 trials ×  1 epochs, best accuracy 30.1%
	//   rung 1:  6 trials ×  3 epochs, best accuracy 64.9%
	//   rung 2:  2 trials ×  9 epochs, best accuracy 91.8%
	//   rung 3:  1 trials × 17 epochs, best accuracy 94.3%
	//   winner: trial-01-resnet-18-sgd-lr0.01 (94.3%) using 69 total epochs in 49 virtual minutes
}
