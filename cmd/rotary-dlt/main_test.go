package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// ttrOverhead matches the one wall-clock value the command prints.
var ttrOverhead = regexp.MustCompile(`TTR overhead: .*`)

// runMain runs the command with args on a fresh flag set and prints what
// it wrote to stdout with each line's trailing spaces trimmed (the job
// table pads its last column) and the wall-clock TTR overhead masked.
func runMain(args ...string) {
	flag.CommandLine = flag.NewFlagSet("rotary-dlt", flag.ExitOnError)
	os.Args = append([]string{"rotary-dlt"}, args...)
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
		fmt.Println(ttrOverhead.ReplaceAllString(l, "TTR overhead: (wall clock)"))
	}
}

// Each example pins one -policy name on a small workload, so a name that
// builds a different scheduler, or none, moves a printed line.

func Example_adaptive() {
	runMain("-jobs", "4", "-history", "5", "-policy", "adaptive")
	// Output:
	// running 4 DLT jobs on 4 GPUs under rotary-dlt-adaptive…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        27 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}

func Example_fairness() {
	runMain("-jobs", "4", "-history", "5", "-policy", "fairness")
	// Output:
	// running 4 DLT jobs on 4 GPUs under rotary-dlt-fairness…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        27 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}

func Example_efficiency() {
	runMain("-jobs", "4", "-history", "5", "-policy", "efficiency")
	// Output:
	// running 4 DLT jobs on 4 GPUs under rotary-dlt-efficiency…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        27 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}

func Example_srf() {
	runMain("-jobs", "4", "-history", "5", "-policy", "srf")
	// Output:
	// running 4 DLT jobs on 4 GPUs under srf…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        26 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}

func Example_bcf() {
	runMain("-jobs", "4", "-history", "5", "-policy", "bcf")
	// Output:
	// running 4 DLT jobs on 4 GPUs under bcf…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        27 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}

func Example_laf() {
	runMain("-jobs", "4", "-history", "5", "-policy", "laf")
	// Output:
	// running 4 DLT jobs on 4 GPUs under laf…
	//
	// job                          kind         criteria      epochs accuracy  end(min) status
	// dlt-00-mobilenetv2           convergence  ACC DELTA 0.03 WITHIN 5 epochs       5    55.0%         8 expired
	// dlt-01-squeezenet            runtime      FOR 30 epochs      30    73.3%        54 attained
	// dlt-02-efficientnet-b0       convergence  ACC DELTA 5e-05 WITHIN 15 epochs      15    91.5%        27 expired
	// dlt-03-bert-mini             runtime      FOR 50 epochs      50    90.9%        91 attained
	//
	//     t(min) attained    min    p25    p50    p75    max   mean
	//         60        1   0.64   0.91   1.00   1.00   1.00   0.91
	//         91        2   1.00   1.00   1.00   1.00   1.00   1.00
	//
	// virtual makespan: 91 minutes; TTR overhead: (wall clock)
}
