package estimate

import (
	"math"
	"testing"
)

// Degenerate-input guards: every estimator must survive pathological
// series — constant, non-monotone, single-point, and NaN/Inf-polluted —
// by reporting "unknown" (ok=false) or a finite fallback, never by
// leaking NaN/Inf into an arbitration decision.

func TestFitWLSDropsNonFinitePoints(t *testing.T) {
	pts := []Point{
		{X: 1, Y: 1},
		{X: math.NaN(), Y: 2},
		{X: 2, Y: math.Inf(1)},
		{X: 3, Y: 3},
	}
	w := []float64{1, 1, 1, 1}
	line := FitWLS(pts, w)
	if !finite(line.Slope) || !finite(line.Intercept) {
		t.Fatalf("non-finite fit %+v from polluted points", line)
	}
	if math.Abs(line.Slope-1) > 1e-9 || math.Abs(line.Intercept) > 1e-9 {
		t.Fatalf("fit %+v, want y=x from the two finite points", line)
	}
}

func TestFitWLSDropsNonFiniteWeights(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}, {X: 2, Y: 100}, {X: 3, Y: 3}}
	w := []float64{1, math.NaN(), 1}
	line := FitWLS(pts, w)
	if math.Abs(line.Slope-1) > 1e-9 {
		t.Fatalf("slope %v, want 1 with the NaN-weighted outlier dropped", line.Slope)
	}
}

func TestFitWLSAllPointsDegenerate(t *testing.T) {
	pts := []Point{{X: math.NaN(), Y: 1}, {X: 2, Y: math.NaN()}}
	line := FitWLS(pts, []float64{1, 1})
	if line != (Line{}) {
		t.Fatalf("fit %+v, want zero line when every point is dropped", line)
	}
}

func TestFitWLSSinglePoint(t *testing.T) {
	line := FitWLS([]Point{{X: 5, Y: 0.7}}, []float64{1})
	if line.Slope != 0 || math.Abs(line.Intercept-0.7) > 1e-9 {
		t.Fatalf("fit %+v, want flat line through the single point", line)
	}
}

func TestXForRejectsDegenerateLines(t *testing.T) {
	cases := []struct {
		name string
		line Line
	}{
		{"flat", Line{Intercept: 0.5, Slope: 0}},
		{"negative slope", Line{Intercept: 0.9, Slope: -0.1}},
		{"nan slope", Line{Intercept: 0.5, Slope: math.NaN()}},
		{"nan intercept", Line{Intercept: math.NaN(), Slope: 1}},
		{"inf intercept", Line{Intercept: math.Inf(-1), Slope: 1}},
	}
	for _, c := range cases {
		if x, ok := c.line.XFor(0.95); ok {
			t.Errorf("%s: XFor = (%v, true), want unknown", c.name, x)
		}
	}
}

func TestAccuracyProgressConstantSeries(t *testing.T) {
	est := NewAccuracyProgress(NewRepository())
	// A constant series fits a flat line; the estimate must stay finite
	// and clamped.
	rt := []Point{{X: 10, Y: 0.4}, {X: 20, Y: 0.4}, {X: 30, Y: 0.4}}
	p, ok := est.EstimateAt("q1", "small", 1000, rt, 300)
	if !ok {
		t.Fatal("constant series should still yield a (flat) estimate")
	}
	if !finite(p) || p < 0 || p > 1 {
		t.Fatalf("estimate %v outside [0,1]", p)
	}
}

func TestAccuracyProgressNaNSeries(t *testing.T) {
	est := NewAccuracyProgress(NewRepository())
	rt := []Point{{X: 10, Y: math.NaN()}, {X: 20, Y: math.NaN()}}
	p, ok := est.EstimateAt("q1", "small", 1000, rt, 300)
	if ok {
		t.Fatalf("all-NaN series produced estimate %v, want unknown", p)
	}
}

func TestAccuracyProgressNonMonotoneSeries(t *testing.T) {
	est := NewAccuracyProgress(NewRepository())
	rt := []Point{{X: 10, Y: 0.8}, {X: 20, Y: 0.2}, {X: 30, Y: 0.9}, {X: 40, Y: 0.1}}
	p, ok := est.EstimateAt("q1", "small", 1000, rt, 1e6)
	if ok && (!finite(p) || p < 0 || p > 1) {
		t.Fatalf("non-monotone series leaked estimate %v outside [0,1]", p)
	}
}

func TestTEENonMonotoneAndConstantSeries(t *testing.T) {
	repo := NewRepository()
	repo.AddDLT(DLTRecord{
		ID: "h1", Model: "resnet", Family: "cnn", Dataset: "cifar10",
		ParamsM: 11, BatchSize: 32,
		AccCurve: []float64{0.3, 0.5, 0.6, 0.65, 0.68},
	})
	tee := NewTEE(repo)
	q := DLTQuery{Model: "resnet", Family: "cnn", Dataset: "cifar10", ParamsM: 11, BatchSize: 32}

	// Constant real-time accuracy: the joint fit may go flat; either the
	// estimator reports unknown or a finite positive epoch count.
	if e, ok := tee.EstimateEpochs(q, []float64{0.4, 0.4, 0.4, 0.4}, 0.95); ok && e < 1 {
		t.Fatalf("constant series: epochs %d < 1", e)
	}
	// Non-monotone (oscillating) accuracy must not panic or overflow.
	if e, ok := tee.EstimateEpochs(q, []float64{0.5, 0.1, 0.6, 0.05}, 0.95); ok && e < 1 {
		t.Fatalf("non-monotone series: epochs %d < 1", e)
	}
}

func TestTEENearFlatSlopeSaturates(t *testing.T) {
	repo := NewRepository()
	// A barely-rising curve puts the target crossing astronomically far
	// out; the estimate must saturate at a large finite int, not overflow.
	curve := make([]float64, 8)
	for i := range curve {
		curve[i] = 0.10 + 1e-11*float64(i)
	}
	repo.AddDLT(DLTRecord{
		ID: "flat", Model: "m", Family: "f", Dataset: "d",
		ParamsM: 1, BatchSize: 8, AccCurve: curve,
	})
	tee := NewTEE(repo)
	q := DLTQuery{Model: "m", Family: "f", Dataset: "d", ParamsM: 1, BatchSize: 8}
	e, ok := tee.EstimateEpochs(q, nil, 0.99)
	if ok && (e < 1 || e > 1e9+1) {
		t.Fatalf("near-flat slope: epochs %d outside (0, 1e9]", e)
	}
}

func TestTMENaNHistoryReportsUnknown(t *testing.T) {
	repo := NewRepository()
	repo.AddDLT(DLTRecord{
		ID: "bad", Model: "m", Family: "f", Dataset: "d",
		ParamsM: 1, BatchSize: 32, PeakMemMB: math.NaN(),
	})
	tme := NewTME(repo)
	if mb, ok := tme.EstimateMB("d", 1, 32); ok {
		t.Fatalf("all-NaN history produced %v MB, want unknown", mb)
	}
}

func TestTMESinglePointHistory(t *testing.T) {
	repo := NewRepository()
	repo.AddDLT(DLTRecord{
		ID: "one", Model: "m", Family: "f", Dataset: "d",
		ParamsM: 1, BatchSize: 32, PeakMemMB: 4000,
	})
	tme := NewTME(repo)
	mb, ok := tme.EstimateMB("d", 1, 64)
	if !ok {
		t.Fatal("single-point history should yield a flat-line estimate")
	}
	if !finite(mb) || mb <= 0 {
		t.Fatalf("estimate %v MB, want finite positive", mb)
	}
}

func TestEnvelopeIgnoresNonFinite(t *testing.T) {
	e := NewEnvelope(3)
	e.Observe(10)
	e.Observe(math.NaN())
	e.Observe(math.Inf(1))
	e.Observe(10)
	e.Observe(10)
	if e.Observations() != 3 {
		t.Fatalf("Observations = %d, want 3 (non-finite dropped)", e.Observations())
	}
	if r := e.Ratio(); r != 1 {
		t.Fatalf("Ratio = %v, want 1 for a stable window", r)
	}
	if !e.Converged(0.99) {
		t.Fatal("window of identical finite values should converge")
	}
}

func TestEnvelopeSinglePointNotConverged(t *testing.T) {
	e := NewEnvelope(4)
	e.Observe(5)
	if e.Ratio() != 0 {
		t.Fatalf("Ratio = %v, want 0 with one observation", e.Ratio())
	}
	if e.Converged(0.5) {
		t.Fatal("single observation must not converge")
	}
}
