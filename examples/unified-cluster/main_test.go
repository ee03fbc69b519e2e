package main

// Example pins the whole printed output — the unified cluster at T =
// 100% and T = 0% — so a change that moves any number this example
// prints fails `go test ./...`.
func Example() {
	main()
	// Output:
	// unified AQP + DLT arbitration on one cluster (§VI)
	//
	// cluster-wide threshold T = 100%
	//     t(min)   cluster min progress
	//         10                   0.00
	//         20                   0.08
	//         30                   0.31
	//         40                   0.32
	//         50                   0.38
	//         60                   0.69
	//         70                   0.88
	//         80                   0.95
	//         90                   1.00
	// attained: 7/8 AQP jobs, 3/8 DLT jobs; makespan 90 min
	//
	// cluster-wide threshold T = 0%
	//     t(min)   cluster min progress
	//         10                   0.00
	//         20                   0.04
	//         30                   0.04
	//         40                   0.04
	//         50                   0.04
	//         60                   0.64
	//         70                   0.93
	//         80                   0.96
	//         90                   1.00
	// attained: 7/8 AQP jobs, 3/8 DLT jobs; makespan 90 min
}
