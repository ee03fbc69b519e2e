package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rotary/benchmark/driver"
)

// Spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The program reads it instead of repeating
// it, and refuses to print a result whose names differ from it.
type Spec struct {
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names a workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec is one metric's contract. Bound is the share of the
// baseline median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const specFile = "BENCHMARK.json"

func loadSpec() (*Spec, error) {
	raw, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// Value is one reported metric, in the shape the last output line uses.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one benchmark run's last output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// render checks the measured values against the spec'd metric set — each
// name present exactly once, nothing extra — and attaches the units.
func render(specs []MetricSpec, measured map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(specs))
	for _, m := range specs {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in %s but was not measured", m.Name, specFile)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in %s", name, specFile)
		}
	}
	return out, nil
}

// Report is what -out writes and -compare reads: every end-to-end value
// of every run, per workload and metric.
type Report struct {
	GoVersion string                          `json:"go_version"`
	NumCPU    int                             `json:"num_cpu"`
	Seeds     []uint64                        `json:"seeds"`
	Seconds   float64                         `json:"seconds"`
	Runs      map[string]map[string][]float64 `json:"runs"`
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance rule is written against.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	med := driver.Median(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// Verdicts of compare.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs of one workload.
// A spread wider than the bound on either side cannot resolve a change
// of the bound's size, so it is reported as unresolved, never as same.
func judge(m MetricSpec, base, cand []float64) (verdict string, change float64) {
	mb, mc := driver.Median(base), driver.Median(cand)
	if mb != 0 {
		change = (mc - mb) / mb
		if m.Better == "higher" {
			change = -change
		}
	}
	switch {
	case len(base) >= 2 && len(cand) >= 2 && (spread(base) > m.Bound || spread(cand) > m.Bound):
		return verdictUnresolved, change
	case change > m.Bound:
		return verdictWorse, change
	default:
		return verdictSame, change
	}
}

// compare prints one verdict per end-to-end metric and workload and
// returns how many were worse.
func compare(w io.Writer, spec *Spec, base, cand *Report) int {
	worse := 0
	fmt.Fprintf(w, "%-8s %-26s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "base_median", "cand_median", "change", "spread", "bound", "verdict")
	for _, name := range driver.Workloads {
		if base.Runs[name] == nil && cand.Runs[name] == nil {
			continue // not run: sharded, unless asked for
		}
		for _, m := range spec.EndToEnd {
			b, c := base.Runs[name][m.Name], cand.Runs[name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-8s %-26s missing from a report\n", name, m.Name)
				worse++
				continue
			}
			verdict, change := judge(m, b, c)
			if verdict == verdictWorse {
				worse++
			}
			sp := spread(b)
			if s := spread(c); s > sp {
				sp = s
			}
			fmt.Fprintf(w, "%-8s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				name, m.Name, driver.Median(b), driver.Median(c), 100*change, 100*sp, 100*m.Bound, verdict)
		}
	}
	return worse
}
