package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rotary/internal/core"
	"rotary/internal/faults"
)

func TestRunFlagsValidate(t *testing.T) {
	for _, ok := range []RunFlags{{}, {FaultRate: 0.1, Trace: 5}, {FaultRate: faults.MaxUniformRate}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v refused: %v", ok, err)
		}
	}
	// Uniform clamps above its ceiling, so a rate it would not deal is a
	// usage error rather than a silently smaller run.
	for _, rate := range []float64{0.31, 1, -0.1, math.NaN()} {
		if err := (RunFlags{FaultRate: rate}).Validate(); err == nil || !strings.Contains(err.Error(), "-fault-rate") {
			t.Errorf("-fault-rate %g: %v", rate, err)
		}
	}
	if err := (RunFlags{Trace: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Errorf("-trace -1: %v", err)
	}
}

// Start arms faults into every config and one store, and Close removes
// the store's directory, writes the metrics file and reports one it
// could not write.
func TestStartArmsAndCloseReports(t *testing.T) {
	t.Cleanup(func() { core.SetDefaultTracer(nil) })
	dir := t.TempDir()
	var a, b core.ExecConfig
	run, err := Start(RunFlags{Seed: 3, FaultRate: 0.1, Trace: 2,
		TraceOut: filepath.Join(dir, "t.jsonl"), MetricsOut: filepath.Join(dir, "m.txt")}, &a, &b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store == nil || a.Store != b.Store || a.Faults == nil || a.Faults != b.Faults {
		t.Fatalf("faults not armed into both configs: %+v %+v", a, b)
	}
	if run.tracer == nil || run.tracer.Capacity() != 2 {
		t.Fatalf("tracer %+v, want a ring of the 2 events -trace prints", run.tracer)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(run.dir); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory %s left behind: %v", run.dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "m.txt")); err != nil {
		t.Errorf("metrics file: %v", err)
	}

	run, err = Start(RunFlags{MetricsOut: filepath.Join(dir, "missing", "m.txt")})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Errorf("unwritable -metrics-out: %v", err)
	}
}
