package core

import (
	"strings"
	"testing"

	"rotary/internal/estimate"
)

func benchBaseReport() *ArbBenchReport {
	return &ArbBenchReport{
		Schema:        arbBenchSchema,
		CalibrationNs: 1000,
		Cases: []ArbBenchCase{
			{Path: "aqp", Policy: "rotary-aqp", Queued: 100, FastPath: false, NsPerOp: 10000, AllocsPerOp: 100},
			{Path: "aqp", Policy: "rotary-aqp", Queued: 100, FastPath: true, NsPerOp: 500, AllocsPerOp: 2},
		},
	}
}

// CompareArbBench passes a report against itself and flags ns, alloc,
// and missing-case regressions with the tolerance bands applied.
func TestCompareArbBench(t *testing.T) {
	base := benchBaseReport()
	if fails := CompareArbBench(base, base, 0.15, 0.10); len(fails) != 0 {
		t.Fatalf("self-comparison failed: %v", fails)
	}

	// Within band: 10% slower under a 15% band.
	cur := benchBaseReport()
	cur.Cases[0].NsPerOp = 11000
	if fails := CompareArbBench(base, cur, 0.15, 0.10); len(fails) != 0 {
		t.Fatalf("within-band slowdown flagged: %v", fails)
	}

	// Out of band: 20% slower.
	cur = benchBaseReport()
	cur.Cases[0].NsPerOp = 12000
	fails := CompareArbBench(base, cur, 0.15, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Fatalf("out-of-band slowdown not flagged correctly: %v", fails)
	}

	// Alloc regression: 100 -> 120 under a 10% band.
	cur = benchBaseReport()
	cur.Cases[0].AllocsPerOp = 120
	fails = CompareArbBench(base, cur, 0.15, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("alloc regression not flagged correctly: %v", fails)
	}

	// Missing case.
	cur = benchBaseReport()
	cur.Cases = cur.Cases[:1]
	fails = CompareArbBench(base, cur, 0.15, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("missing case not flagged correctly: %v", fails)
	}
}

// Calibration normalization: a current run on a machine measured 2×
// slower (calibration 2000 vs 1000) may be 2× slower on every case
// without being a regression — and conversely, raw-equal numbers on a
// 2× faster machine ARE a regression.
func TestCompareArbBenchCalibrationScaling(t *testing.T) {
	base := benchBaseReport()
	cur := benchBaseReport()
	cur.CalibrationNs = 2000
	for i := range cur.Cases {
		cur.Cases[i].NsPerOp *= 2
	}
	if fails := CompareArbBench(base, cur, 0.15, 0.10); len(fails) != 0 {
		t.Fatalf("slower machine flagged despite calibration: %v", fails)
	}

	fast := benchBaseReport()
	fast.CalibrationNs = 500 // machine is 2× faster...
	// ...but the measured ns/op did not improve at all: real regression.
	if fails := CompareArbBench(base, fast, 0.15, 0.10); len(fails) != len(base.Cases) {
		t.Fatalf("faster machine's stagnant ns/op not flagged: %v", fails)
	}
	// Allocs are machine-independent: never scaled.
	alloc := benchBaseReport()
	alloc.CalibrationNs = 2000
	for i := range alloc.Cases {
		alloc.Cases[i].NsPerOp *= 2
		alloc.Cases[i].AllocsPerOp *= 2
	}
	fails := CompareArbBench(base, alloc, 0.15, 0.10)
	if len(fails) != len(base.Cases) {
		t.Fatalf("alloc doubling not flagged on slower machine: %v", fails)
	}

	// Cell-adjacent calibration overrides the run-level number: a cell
	// measured while the machine was 2× loaded may be 2× slower even
	// though the run-level calibration (taken at startup) saw no load.
	cellBase := benchBaseReport()
	cellCur := benchBaseReport()
	for i := range cellBase.Cases {
		cellBase.Cases[i].CalibrationNs = 1000
		cellCur.Cases[i].CalibrationNs = 2000
		cellCur.Cases[i].NsPerOp *= 2
	}
	if fails := CompareArbBench(cellBase, cellCur, 0.15, 0.10); len(fails) != 0 {
		t.Fatalf("mid-matrix load flagged despite cell calibration: %v", fails)
	}
	// And the reverse: the cell's own spin got faster, raw-equal ns/op is
	// a real regression even though run-level calibration is unchanged.
	cellFast := benchBaseReport()
	for i := range cellFast.Cases {
		cellFast.Cases[i].CalibrationNs = 500
	}
	if fails := CompareArbBench(cellBase, cellFast, 0.15, 0.10); len(fails) != len(cellBase.Cases) {
		t.Fatalf("per-cell stagnant ns/op not flagged: %v", fails)
	}
}

// MergeArbBenchMin keeps, per cell, whichever run was faster, and
// passes through cells measured only once.
func TestMergeArbBenchMin(t *testing.T) {
	a := benchBaseReport()
	b := benchBaseReport()
	b.Cases[0].NsPerOp = 8000 // retry was faster: keep it
	b.Cases[1].NsPerOp = 900  // retry was slower: keep the original
	b.Cases = append(b.Cases, ArbBenchCase{Path: "dlt", Policy: "srf", Queued: 100, NsPerOp: 77})

	m := MergeArbBenchMin(a, b)
	if len(m.Cases) != 3 {
		t.Fatalf("merged cases = %d, want 3", len(m.Cases))
	}
	if m.Cases[0].NsPerOp != 8000 {
		t.Errorf("cell 0: kept %v, want the faster retry 8000", m.Cases[0].NsPerOp)
	}
	if m.Cases[1].NsPerOp != 500 {
		t.Errorf("cell 1: kept %v, want the faster original 500", m.Cases[1].NsPerOp)
	}
	if m.Cases[2].NsPerOp != 77 {
		t.Errorf("retry-only cell not passed through: %+v", m.Cases[2])
	}
	// Inputs are not mutated.
	if a.Cases[0].NsPerOp != 10000 {
		t.Errorf("merge mutated its input: %v", a.Cases[0].NsPerOp)
	}
}

// The queue synthesis is a pure function of the seed: two queues from
// the same seed fingerprint identically, different seeds differ.
func TestSynthQueuesDeterministic(t *testing.T) {
	f := newAQPFastPath(NewRotaryAQP(estimate.NewAccuracyProgress(estimate.NewRepository(), 3)))
	a, b := synthAQPQueue(12, 9), synthAQPQueue(12, 9)
	for i := range a {
		fa := f.jobFingerprint(a[i])
		// Separate memo identity: clear so pointer memoization can't mask
		// a content difference.
		delete(f.idH, a[i])
		if fb := f.jobFingerprint(b[i]); fa != fb {
			t.Fatalf("job %d fingerprints diverged across same-seed synthesis", i)
		}
	}
	c := synthAQPQueue(12, 10)
	same := true
	for i := range a {
		delete(f.idH, a[i])
		fa := f.jobFingerprint(a[i])
		delete(f.idH, c[i])
		if fa != f.jobFingerprint(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical queues")
	}
}
