//go:build bench

package core

import (
	"strings"
	"testing"

	"rotary/internal/estimate"
)

// End-to-end smoke over a tiny matrix: the harness must produce one
// case per (policy, depth, toggle) cell, with hits recorded on the
// fast-path cells and sane derived numbers. It runs real benchmarks
// (~40 s), so it is built only under the bench tag, which CI's bench job
// sets: go test -tags bench -run RunArbiterBenchSmoke ./internal/core.
func TestRunArbiterBenchSmoke(t *testing.T) {
	var lines int
	rep, err := RunArbiterBench(ArbBenchConfig{
		QueueSizes:     []int{6},
		Seed:           7,
		HistoryRecords: 8,
		AQP: []ArbBenchAQPPolicy{{Name: "rotary-aqp", Build: func(repo *estimate.Repository) AQPScheduler {
			return NewRotaryAQP(estimate.NewAccuracyProgress(repo, 3))
		}}},
		DLT: []ArbBenchDLTPolicy{{Name: "rotary-dlt", Build: func(repo *estimate.Repository) DLTScheduler {
			return NewRotaryDLT(0.5, estimate.NewTEE(repo, 3), estimate.NewTME(repo, 3))
		}}},
		Log: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != arbBenchSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.CalibrationNs <= 0 {
		t.Errorf("calibration = %v", rep.CalibrationNs)
	}
	if len(rep.Cases) != 4 || lines != 4 {
		t.Fatalf("cases = %d, log lines = %d, want 4", len(rep.Cases), lines)
	}
	for _, c := range rep.Cases {
		if c.NsPerOp <= 0 || c.DecisionsPerSec <= 0 {
			t.Errorf("%s: empty measurement: %+v", arbCaseKey(c), c)
		}
		if c.EpochVirtualSecs <= 0 || c.OverheadFrac <= 0 {
			t.Errorf("%s: missing overhead accounting: %+v", arbCaseKey(c), c)
		}
		if c.CalibrationNs <= 0 {
			t.Errorf("%s: missing cell calibration", arbCaseKey(c))
		}
		if c.FastPath && c.FastPathHits == 0 {
			t.Errorf("%s: fast-path cell recorded no hits", arbCaseKey(c))
		}
		if !c.FastPath && (c.FastPathHits != 0 || c.FastPathMisses != 0) {
			t.Errorf("%s: slow-path cell recorded cache traffic", arbCaseKey(c))
		}
	}
	if fails := CompareArbBench(rep, rep, 0.15, 0.10); len(fails) != 0 {
		t.Errorf("fresh report fails against itself: %v", fails)
	}
	if r := rep.Render(); !strings.Contains(r, "rotary-aqp") || !strings.Contains(r, "fast=on") {
		t.Errorf("render missing expected content:\n%s", r)
	}
}
