package estimate

import "sync"

// AccuracyProgress is the Rotary-AQP accuracy-progress estimator of
// §IV-A: it predicts the accuracy a job would reach at a future runtime
// by fitting a progress-runtime curve over the top-k similar historical
// jobs jointly with the job's own recorded real-time intermediate
// results (equal-share weighting).
//
// It also serves as the pluggable estimation point for the Fig. 9
// sensitivity experiment: ProgressEstimator is the interface the arbiter
// consumes, and RandomProgress is the misleading uniform-random stand-in.
type AccuracyProgress struct {
	repo *Repository

	// mu guards the per-key cache of concatenated top-k curves, valid
	// while the repository's AQP version equals version. Once every key
	// in use holds aqpKeepPerKey records the version stops moving, and a
	// warm estimate does no work that grows with the history.
	mu      sync.Mutex
	version uint64
	hist    map[aqpKey][]Point
}

// ProgressEstimator predicts a job's accuracy progress at a future
// runtime from its identity and real-time (runtime, accuracy) history.
type ProgressEstimator interface {
	// EstimateAt predicts the accuracy progress at runtime atSecs. The
	// second result reports whether a meaningful estimate existed.
	EstimateAt(query, class string, batchRows int, realtime []Point, atSecs float64) (float64, bool)
}

// NewAccuracyProgress returns the historical+real-time estimator over
// the top 3 similar records, the most the repository keeps per key.
func NewAccuracyProgress(repo *Repository) *AccuracyProgress {
	return &AccuracyProgress{repo: repo, hist: make(map[aqpKey][]Point)}
}

// history returns the concatenated curves of the top-k records similar to
// the key, from the cache when the repository has not changed since.
func (a *AccuracyProgress) history(query, class string, batchRows int) []Point {
	v := a.repo.aqpVersionNow()
	a.mu.Lock()
	defer a.mu.Unlock()
	if v != a.version {
		clear(a.hist)
		a.version = v
	}
	k := aqpKey{query, class, batchRows}
	if h, ok := a.hist[k]; ok {
		return h
	}
	recs, read := a.repo.topKSimilarAQP(query, class, batchRows, aqpKeepPerKey)
	var h []Point
	for _, rec := range recs {
		h = append(h, rec.Curve...)
	}
	if read == v {
		a.hist[k] = h // a record kept since v would make h newer than the cache
	}
	return h
}

// EstimateAt implements ProgressEstimator.
func (a *AccuracyProgress) EstimateAt(query, class string, batchRows int, realtime []Point, atSecs float64) (float64, bool) {
	hist := a.history(query, class, batchRows)
	if len(hist) == 0 && len(realtime) < 2 {
		return 0, false
	}
	if countFinite(hist)+countFinite(realtime) == 0 {
		// An all-NaN series fits the zero line, which would masquerade
		// as a confident "no progress" estimate.
		return 0, false
	}
	line := JointFit(hist, realtime)
	est := line.At(atSecs)
	// A degenerate fit (NaN/Inf coefficients survive clamping — NaN fails
	// both comparisons) must report unknown, not poison the arbiter; the
	// caller falls back to the job's own envelope-based real-time curve.
	if !finite(est) {
		return 0, false
	}
	if est < 0 {
		est = 0
	}
	if est > 1 {
		est = 1
	}
	return est, true
}

// RandomProgress is the Fig. 9 artificial estimator: "their accuracy
// progress estimator will randomly return the estimated progress
// following a uniform distribution from 0 to 1. Such artificial progress
// estimation is misleading."
type RandomProgress struct {
	mu  sync.Mutex
	src rng
}

type rng interface{ Float64() float64 }

// NewRandomProgress wraps a uniform source (internal/sim.Rand satisfies
// it).
func NewRandomProgress(src interface{ Float64() float64 }) *RandomProgress {
	return &RandomProgress{src: src}
}

// EstimateAt implements ProgressEstimator by ignoring everything and
// returning uniform noise.
func (r *RandomProgress) EstimateAt(string, string, int, []Point, float64) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.src.Float64(), true
}
