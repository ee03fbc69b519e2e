package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
)

// runMain runs the command with args on a fresh flag set and prints what
// it wrote to stdout with each line's trailing spaces trimmed: the
// attainment table pads its last column, and an Output block cannot
// hold trailing spaces.
func runMain(args ...string) {
	flag.CommandLine = flag.NewFlagSet("rotary-aqp", flag.ExitOnError)
	os.Args = append([]string{"rotary-aqp"}, args...)
	r, w, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []string)
	go func() {
		var lines []string
		for sc := bufio.NewScanner(r); sc.Scan(); {
			lines = append(lines, strings.TrimRight(sc.Text(), " "))
		}
		done <- lines
	}()
	main()
	w.Close()
	os.Stdout = stdout
	for _, l := range <-done {
		fmt.Println(l)
	}
}

// Example pins a small round-robin run under fault injection — the flags
// of CI's lost-trace step plus -fault-rate — so a change to how the
// command builds, submits, arms or reports moves a printed line and
// fails `go test ./...`.
func Example() {
	runMain("-sf", "0.005", "-jobs", "6", "-policy", "rr", "-fault-rate", "0.1")
	// Output:
	// generating TPC-H at SF=0.005 (seed 1)…
	// fault injection armed: rate=0.1 seed=1
	// running 6 jobs under round-robin…
	//
	// job                query   class   threshold  deadline   runtime status     attained
	// aqp-00-q21         q21     heavy         55%     3060s     1973s attained
	// aqp-01-q22         q22     light         75%      360s      362s expired
	// aqp-02-q18         q18     heavy         85%     3060s     3104s expired
	// aqp-03-q7          q7      heavy         90%     2700s     1401s converged
	// aqp-04-q2          q2      light         70%      540s      609s expired
	// aqp-05-q14         q14     light         65%      900s      475s attained   ✓
	//
	// attained: light 1/3, medium 0/0, heavy 0/3, total 1/6; false attainment 1
	// virtual makespan: 3521.177s
	//
	// recovery report: round-robin
	//  crashes=14 recovered=13 rollbacks=14 scratch-restarts=0
	//  wasted-work=308.8s recovery-latency: total=701.1s mean=50.1s
	//  checkpoint store: retries=0 transient-failures=0 corrupt-detected=0 slow-ios=0 swept=0
}
