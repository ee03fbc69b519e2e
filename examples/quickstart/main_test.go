package main

// Example pins the whole printed output — three criteria parsed, one AQP
// job and two DLT jobs run — so a change that moves any number this
// example prints fails `go test ./...`.
func Example() {
	main()
	// Output:
	// command "SELECT SUM(L_EXTENDEDPRICE * L_DISCOUNT) FROM LINEITEM"
	//   → criteria: ACC MIN 80% WITHIN 900 seconds (accuracy-oriented)
	// command "TRAIN RESNET-18 ON CIFAR10"
	//   → criteria: ACC DELTA 0.003 WITHIN 30 epochs (convergence-oriented)
	// command "TRAIN MOBILENET ON CIFAR10"
	//   → criteria: FOR 10 epochs (runtime-oriented)
	//
	// -- Rotary-AQP: one online-aggregation job --
	// q6 stopped attained after 54 epochs, 84.3% of data, estimated accuracy 83.0%
	//
	// -- Rotary-DLT: convergence- and runtime-oriented training --
	// quickstart-resnet-18: attained after 17 epochs at 93.3% accuracy (24.0 virtual minutes)
	// quickstart-mobilenet: attained after 10 epochs at 87.2% accuracy (13.4 virtual minutes)
}
