package estimate

import (
	"math"
	"testing"
	"testing/quick"

	"rotary/internal/sim"
)

func TestFitWLSRecoversExactLine(t *testing.T) {
	check := func(a, b float64, seed uint64) bool {
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		r := sim.NewRand(seed)
		var pts []Point
		var ws []float64
		for i := 0; i < 10; i++ {
			x := r.Range(0, 100)
			pts = append(pts, Point{X: x, Y: a + b*x})
			ws = append(ws, r.Range(0.1, 2))
		}
		line := FitWLS(pts, ws)
		return math.Abs(line.Intercept-a) < 1e-6*(1+math.Abs(a)) &&
			math.Abs(line.Slope-b) < 1e-6*(1+math.Abs(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitWLSDegenerateInputs(t *testing.T) {
	if l := FitWLS(nil, nil); l.Slope != 0 || l.Intercept != 0 {
		t.Errorf("empty fit = %+v", l)
	}
	// All-same-x degenerates to the weighted mean.
	l := FitWLS([]Point{{1, 2}, {1, 4}}, []float64{1, 1})
	if l.Slope != 0 || math.Abs(l.Intercept-3) > 1e-12 {
		t.Errorf("degenerate fit = %+v, want flat through 3", l)
	}
	// Zero weights drop points.
	l = FitWLS([]Point{{0, 0}, {1, 1}, {5, 999}}, []float64{1, 1, 0})
	if math.Abs(l.Slope-1) > 1e-9 {
		t.Errorf("zero-weight point influenced fit: %+v", l)
	}
}

func TestLineXFor(t *testing.T) {
	l := Line{Intercept: 0.2, Slope: 0.1}
	x, ok := l.XFor(0.7)
	if !ok || math.Abs(x-5) > 1e-12 {
		t.Errorf("XFor = %v, %v", x, ok)
	}
	if _, ok := (Line{Slope: 0}).XFor(0.5); ok {
		t.Error("flat line claims to reach a target")
	}
	if _, ok := (Line{Slope: -1}).XFor(0.5); ok {
		t.Error("declining line claims to reach a target")
	}
}

func TestJointFitWeighting(t *testing.T) {
	// History says slope 0, real-time says slope 1; with m real-time
	// points the real-time side carries m/(m+1) of the weight.
	hist := []Point{{0, 0.5}, {10, 0.5}}
	rt := []Point{{0, 0}, {10, 10}}
	line := JointFit(hist, rt)
	histOnly := JointFit(hist, nil)
	rtOnly := JointFit(nil, rt)
	if !(histOnly.Slope < line.Slope && line.Slope < rtOnly.Slope) {
		t.Errorf("joint slope %v not between history %v and realtime %v",
			line.Slope, histOnly.Slope, rtOnly.Slope)
	}
	if rtOnly.Slope != 1 {
		t.Errorf("realtime-only slope %v, want 1", rtOnly.Slope)
	}
	if z := JointFit(nil, nil); z.Slope != 0 || z.Intercept != 0 {
		t.Errorf("empty joint fit = %+v", z)
	}
}

func TestSimilarityProperties(t *testing.T) {
	check := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		s := Similarity(x, y)
		if s < 0 || s > 1 {
			return false
		}
		if s != Similarity(y, x) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if Similarity(5, 5) != 1 || Similarity(0, 0) != 1 {
		t.Error("identity similarity must be 1")
	}
	if Similarity(1, 2) != 0.5 {
		t.Errorf("Similarity(1,2) = %v, want 0.5", Similarity(1, 2))
	}
}

func TestEnvelopeConvergence(t *testing.T) {
	e := NewEnvelope(4)
	if e.Converged(0.99) {
		t.Error("empty envelope converged")
	}
	// Growing values: ratio well below 1.
	for _, v := range []float64{1, 2, 3, 4} {
		e.Observe(v)
	}
	if e.Converged(0.99) {
		t.Errorf("growing window converged (ratio %v)", e.Ratio())
	}
	// Stable values converge.
	for i := 0; i < 4; i++ {
		e.Observe(100)
	}
	if !e.Converged(0.99) {
		t.Errorf("stable window not converged (ratio %v)", e.Ratio())
	}
	// Sign change resets confidence.
	e.Observe(-100)
	if e.Ratio() != 0 {
		t.Errorf("sign-change ratio = %v, want 0", e.Ratio())
	}
}

func TestEnvelopeZeroStable(t *testing.T) {
	e := NewEnvelope(3)
	for i := 0; i < 3; i++ {
		e.Observe(0)
	}
	if !e.Converged(0.999) {
		t.Error("constant-zero aggregate not converged")
	}
}

func seededRepo() *Repository {
	r := NewRepository()
	r.AddDLT(DLTRecord{ID: "exact", Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01,
		Epochs: 10, AccCurve: []float64{0.3, 0.45, 0.56, 0.65, 0.72, 0.78, 0.82, 0.85, 0.87, 0.89},
		PeakMemMB: 3000, EpochSecs: 80})
	r.AddDLT(DLTRecord{ID: "family", Model: "resnet-34", Family: "resnet", Dataset: "cifar10",
		ParamsM: 21.8, BatchSize: 16, Optimizer: "adam", LR: 0.001,
		Epochs: 12, AccCurve: []float64{0.25, 0.4, 0.5, 0.6, 0.68, 0.74, 0.79, 0.83, 0.86, 0.88, 0.9, 0.91},
		PeakMemMB: 4200, EpochSecs: 150})
	r.AddDLT(DLTRecord{ID: "othernet", Model: "lenet", Family: "lenet", Dataset: "cifar10",
		ParamsM: 0.06, BatchSize: 32, Optimizer: "sgd", LR: 0.01,
		Epochs: 8, AccCurve: []float64{0.3, 0.4, 0.48, 0.55, 0.6, 0.63, 0.65, 0.66},
		PeakMemMB: 400, EpochSecs: 20})
	r.AddDLT(DLTRecord{ID: "nlp", Model: "bert-mini", Family: "bert", Dataset: "imdb",
		ParamsM: 11.3, BatchSize: 128, Optimizer: "adam", LR: 0.001,
		Epochs: 5, AccCurve: []float64{0.6, 0.7, 0.75, 0.79, 0.82},
		PeakMemMB: 2600, EpochSecs: 140})
	return r
}

func TestTopKSimilarDLTPrefersExactMatch(t *testing.T) {
	repo := seededRepo()
	q := DLTQuery{Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01}
	recs := repo.TopKSimilarDLT(q, 2)
	if len(recs) != 2 || recs[0].ID != "exact" {
		t.Fatalf("topK = %v", recs)
	}
}

func TestTopKSimilarDLTCrossDatasetFallback(t *testing.T) {
	repo := seededRepo()
	repo.RemoveDLT(func(rec DLTRecord) bool { return rec.Dataset != "imdb" })
	// Only cifar10 records remain; an imdb query falls back to them.
	q := DLTQuery{Model: "bert-mini", Family: "bert", Dataset: "imdb",
		ParamsM: 11.3, BatchSize: 128, Optimizer: "adam", LR: 0.001}
	recs := repo.TopKSimilarDLT(q, 3)
	if len(recs) == 0 {
		t.Fatal("no cross-dataset fallback")
	}
	for _, rec := range recs {
		if rec.Dataset == "imdb" {
			t.Fatal("imdb record survived removal")
		}
	}
}

func TestTEEKnownCurve(t *testing.T) {
	repo := seededRepo()
	tee := NewTEE(repo)
	q := DLTQuery{Model: "resnet-18", Family: "resnet", Dataset: "cifar10",
		ParamsM: 11.7, BatchSize: 32, Optimizer: "sgd", LR: 0.01}
	// Cold start from history only: target 0.85 is reached around epoch 8
	// on the exact record.
	e, ok := tee.EstimateEpochs(q, nil, 0.85)
	if !ok {
		t.Fatal("no estimate from history")
	}
	if e < 5 || e > 14 {
		t.Errorf("cold-start estimate %d, want ≈8", e)
	}
	// With real-time data already past the target, the estimate is the
	// observed epoch count.
	e, ok = tee.EstimateEpochs(q, []float64{0.5, 0.7, 0.86}, 0.85)
	if !ok || e != 3 {
		t.Errorf("past-target estimate = %d, %v; want 3", e, ok)
	}
	if tee.Calls() != 2 || tee.Overhead() <= 0 {
		t.Error("overhead accounting inactive")
	}
}

func TestTEEUnknownWithoutRelevantData(t *testing.T) {
	repo := seededRepo()
	repo.RemoveDLT(func(rec DLTRecord) bool { return rec.Dataset == "cifar10" })
	tee := NewTEE(repo)
	q := DLTQuery{Model: "bert-mini", Family: "bert", Dataset: "imdb",
		ParamsM: 11.3, BatchSize: 128, Optimizer: "adam", LR: 0.001}
	if _, ok := tee.EstimateEpochs(q, []float64{0.6}, 0.8); ok {
		t.Error("trusted a fit with no same-dataset history and 1 real-time point")
	}
	// Enough real-time points restore estimation.
	if _, ok := tee.EstimateEpochs(q, []float64{0.6, 0.7, 0.75, 0.79}, 0.85); !ok {
		t.Error("refused a realtime-rich fit")
	}
}

func TestTMEPredictsWithPadding(t *testing.T) {
	repo := seededRepo()
	tme := NewTME(repo)
	mb, ok := tme.EstimateMB("cifar10", 11.7, 32)
	if !ok {
		t.Fatal("no estimate")
	}
	// Roughly near the similar records' footprints, plus padding.
	if mb < 2000 || mb > 8000 {
		t.Errorf("estimate %v MB implausible", mb)
	}
	if _, ok := tme.EstimateMB("udtreebank", 2, 64); ok {
		t.Error("estimated without same-dataset history")
	}
	if tme.Calls() != 2 {
		t.Errorf("calls = %d", tme.Calls())
	}
}

func TestTopKSimilarAQPPrefersSameQuery(t *testing.T) {
	r := NewRepository()
	r.AddAQP(AQPRecord{ID: "same", Query: "q5", Class: "medium", BatchRows: 500})
	r.AddAQP(AQPRecord{ID: "class", Query: "q3", Class: "medium", BatchRows: 500})
	r.AddAQP(AQPRecord{ID: "other", Query: "q1", Class: "light", BatchRows: 500})
	recs := r.TopKSimilarAQP("q5", "medium", 500, 2)
	if len(recs) != 2 || recs[0].ID != "same" || recs[1].ID != "class" {
		t.Fatalf("topK = %+v", recs)
	}
}

func TestRandomProgressBounds(t *testing.T) {
	rp := NewRandomProgress(sim.NewRand(1))
	for i := 0; i < 100; i++ {
		v, ok := rp.EstimateAt("q1", "light", 100, nil, 50)
		if !ok || v < 0 || v >= 1 {
			t.Fatalf("random estimate %v, %v", v, ok)
		}
	}
}

func TestAccuracyProgressJointEstimate(t *testing.T) {
	r := NewRepository()
	r.AddAQP(AQPRecord{ID: "h", Query: "q6", Class: "light", BatchRows: 500,
		Curve: []Point{{100, 0.2}, {200, 0.4}, {300, 0.6}, {400, 0.8}, {500, 1.0}}})
	ap := NewAccuracyProgress(r)
	// Cold start: history only.
	est, ok := ap.EstimateAt("q6", "light", 500, nil, 250)
	if !ok || est < 0.3 || est > 0.7 {
		t.Errorf("cold-start estimate %v, %v; want ≈0.5", est, ok)
	}
	// Estimates are clamped to [0, 1].
	est, _ = ap.EstimateAt("q6", "light", 500, nil, 10000)
	if est > 1 {
		t.Errorf("estimate %v above 1", est)
	}
	if _, ok := NewAccuracyProgress(NewRepository()).EstimateAt("q6", "light", 500, []Point{{1, 0.1}}, 50); ok {
		t.Error("estimated with neither history nor two realtime points")
	}
}

func TestLogSimilarity(t *testing.T) {
	if s := logSimilarity(0.01, 0.01); s != 1 {
		t.Errorf("identical lrs score %v", s)
	}
	near := logSimilarity(0.01, 0.03)
	far := logSimilarity(0.01, 0.00001)
	if near <= far {
		t.Errorf("near-lr %v not above far-lr %v", near, far)
	}
	if far > 0.15 {
		t.Errorf("3-decade distance scores %v, want near zero", far)
	}
	if logSimilarity(0, 0.01) != 0 {
		t.Error("non-positive lr must score 0")
	}
}
