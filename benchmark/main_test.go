package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"rotary/benchmark/driver"
)

// TestMain moves to the repository root: the benchmark reads
// BENCHMARK.json and builds ./cmd/rotary-serve relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecContract holds BENCHMARK.json to the limits its consumer
// refuses a file over.
func TestSpecContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// TestSmoke runs every workload, listed in BENCHMARK.json or not, at the
// quick size through both passes and checks the last output line: it
// parses, it is correct, and it carries each name of BENCHMARK.json
// exactly once — run refuses to print a result that does not.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon some thirty times")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, name := range driver.Workloads {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", "both", "-quick"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res Result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(all) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(all))
		}
		for i, m := range all {
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", name, m.Name)
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: unit %q, want %q", m.Name, v.Unit, m.Unit)
			}
			if i < len(spec.EndToEnd) && v.Value <= 0 {
				t.Errorf("%s %s: end-to-end value %g must be positive", name, m.Name, v.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := MetricSpec{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name       string
		m          MetricSpec
		base, cand []float64
		want       string
	}{
		{"unchanged", lower, tight, tight, verdictSame},
		{"slower beyond the bound", lower, tight, scale(1.2), verdictWorse},
		{"slower within the bound", lower, tight, scale(1.05), verdictSame},
		{"faster", lower, tight, scale(0.5), verdictSame},
		{"throughput dropped", higher, tight, scale(0.8), verdictWorse},
		{"throughput rose", higher, tight, scale(1.3), verdictSame},
		{"spread wider than the bound", lower, tight, noisy, verdictUnresolved},
	} {
		if got, _ := judge(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
