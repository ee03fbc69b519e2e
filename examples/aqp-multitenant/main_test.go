package main

// Example pins the whole printed output — the Rotary-AQP and EDF
// attainment comparison — so a change that moves any number this example
// prints fails `go test ./...`.
func Example() {
	main()
	// Output:
	// generating shared TPC-H warehouse (SF 0.01)…
	//
	// policy rotary-aqp   attained light 9/10, medium 6/11, heavy 6/9, total 21/30
	//   budgeted time returned by early stops: 22046 job-seconds
	//   false attainments (envelope mistakes): 7
	//
	// policy edf          attained light 9/10, medium 5/11, heavy 6/9, total 20/30
	//   budgeted time returned by early stops: 25621 job-seconds
	//   false attainments (envelope mistakes): 7
}
