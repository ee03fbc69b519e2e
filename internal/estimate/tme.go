package estimate

import (
	"sync"
	"time"
)

// TME is the training memory estimator of §IV-B: it predicts a DLT job's
// peak GPU memory so the job "can be launched on a target GPU with
// sufficient memory". It retrieves the historical jobs on the same
// dataset, weights them by the model-size similarity
// 1 − |x−y|/max(x,y) (more similar ⇒ higher weight, the inverse of TEE's
// equal-share scheme), fits a batch-size → memory line by weighted linear
// regression, and pads the estimate by an offset to minimize OOM risk.
type TME struct {
	repo *Repository

	mu       sync.Mutex
	overhead time.Duration
	calls    int
}

// The OOM-avoidance padding: an estimate grows by tmePadFraction of
// itself plus tmePadMB.
const (
	tmePadFraction = 0.10
	tmePadMB       = 256
)

// NewTME returns an estimator over the repository, fitting the top 3
// same-dataset historical jobs per estimate.
func NewTME(repo *Repository) *TME {
	return &TME{repo: repo}
}

// EstimateMB predicts the padded peak memory of a job with the given
// model size training on dataset at batchSize. The second result reports
// whether any same-dataset history existed; without history the caller
// must fall back to a conservative default.
func (t *TME) EstimateMB(dataset string, paramsM float64, batchSize int) (float64, bool) {
	start := time.Now()
	defer func() {
		t.mu.Lock()
		t.overhead += time.Since(start)
		t.calls++
		t.mu.Unlock()
	}()

	recs, ws := t.repo.TopKSimilarBySize(dataset, paramsM, dltTopK)
	if len(recs) == 0 {
		return 0, false
	}
	points := make([]Point, len(recs))
	for i, rec := range recs {
		points[i] = Point{X: float64(rec.BatchSize), Y: rec.PeakMemMB}
	}
	if countFinite(points) == 0 {
		// Corrupt history (NaN peak memory) would otherwise fit the zero
		// line and report padding-only as a confident estimate.
		return 0, false
	}
	line := FitWLS(points, ws)
	est := line.At(float64(batchSize))
	// A degenerate fit (all history non-finite, or a non-finite batch
	// size) must report unknown so the caller takes its documented
	// conservative-default fallback rather than reserving NaN megabytes.
	if !finite(est) {
		return 0, false
	}
	if est < 0 {
		est = 0
	}
	return est*(1+tmePadFraction) + tmePadMB, true
}

// Overhead reports the cumulative real wall-clock time spent estimating.
func (t *TME) Overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overhead
}

// Calls reports how many estimates were made.
func (t *TME) Calls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}
