package main

// Example pins the whole printed output — the three Rotary-DLT variants'
// progress snapshots — so a change that moves any number this example
// prints fails `go test ./...`.
func Example() {
	main()
	// Output:
	// survey-based workload: 20 jobs
	//
	// fairness  (T=100%) — makespan 529 min
	//     t(min) attained   min-prog     median       mean
	//         60        1       0.04       0.12       0.23
	//        120        2       0.07       0.26       0.34
	//        180        2       0.07       0.40       0.44
	//        240        2       0.07       0.56       0.51
	//        300        2       0.07       0.73       0.61
	//        360        5       0.07       0.89       0.71
	//        420        8       0.20       1.00       0.80
	//        480        8       0.46       1.00       0.92
	//        529        8       0.46       1.00       0.97
	//
	// adaptive  (T= 50%) — makespan 535 min
	//     t(min) attained   min-prog     median       mean
	//         60        1       0.04       0.12       0.23
	//        120        2       0.07       0.26       0.34
	//        180        2       0.07       0.40       0.44
	//        240        2       0.20       0.52       0.51
	//        300        2       0.32       0.60       0.63
	//        360        3       0.40       0.79       0.77
	//        420        5       0.46       1.00       0.89
	//        480        5       0.46       1.00       0.93
	//        535        8       0.46       1.00       0.97
	//
	// efficiency(T=  0%) — makespan 626 min
	//     t(min) attained   min-prog     median       mean
	//         60        2       0.02       0.10       0.29
	//        120        3       0.02       0.33       0.44
	//        180        4       0.02       0.80       0.61
	//        240        5       0.02       1.00       0.72
	//        300        5       0.02       1.00       0.78
	//        360        5       0.02       1.00       0.84
	//        420        5       0.12       1.00       0.88
	//        480        6       0.32       1.00       0.91
	//        540        6       0.46       1.00       0.94
	//        600        7       0.46       1.00       0.97
	//        626        8       0.46       1.00       0.97
	//
	// fairness pushes the minimum progress up fastest; efficiency completes
	// the most jobs early; adaptive switches from the former to the latter
	// once every job clears the threshold.
}
