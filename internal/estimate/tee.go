package estimate

import (
	"math"
	"sync"
	"time"
)

// TEE is the training epoch estimator of §IV-B: it predicts how many
// training epochs a DLT job needs to reach a target accuracy by fitting
// an accuracy-epoch curve with weighted linear regression over the top-k
// similar historical jobs jointly with the job's own real-time
// observations (each real-time point and the combined history share equal
// weight). TEE tracks its real wall-clock overhead for Table III.
type TEE struct {
	repo *Repository

	mu       sync.Mutex
	overhead time.Duration
	calls    int
}

// dltTopK is how many similar historical jobs TEE and TME fit over.
const dltTopK = 3

// teeMinRealtime is the minimum number of real-time observations needed
// before a fit with no same-dataset history is trusted. Below it the
// estimator reports unknown and Algorithm 4 falls back to the
// conservative e*/e_max — the erroneous-estimation regime of §V-B3 (the
// paper's example: a 2-epoch job estimated at 125 epochs once the
// matching history is removed).
const teeMinRealtime = 4

// NewTEE returns an estimator over the repository, selecting the top 3
// similar historical jobs per estimate.
func NewTEE(repo *Repository) *TEE {
	return &TEE{repo: repo}
}

// EstimateEpochs predicts the total number of epochs for the described
// job to reach targetAcc, given its observed accuracy history (realtime[i]
// is the accuracy after epoch i+1). The second result reports whether any
// estimate was possible (some history or real-time data existed and the
// fitted slope was positive); when false the job's progress is unknown —
// the erroneous-estimation regime of Fig. 11.
func (t *TEE) EstimateEpochs(q DLTQuery, realtime []float64, targetAcc float64) (int, bool) {
	start := time.Now()
	defer func() {
		t.mu.Lock()
		t.overhead += time.Since(start)
		t.calls++
		t.mu.Unlock()
	}()

	recs, scores := t.repo.TopKSimilarDLTScored(q, dltTopK)
	sameDataset := false
	for _, rec := range recs {
		if rec.Dataset == q.Dataset {
			sameDataset = true
		}
	}
	rt := make([]Point, len(realtime))
	for i, acc := range realtime {
		rt[i] = Point{X: float64(i + 1), Y: acc}
	}
	if !sameDataset && len(rt) < teeMinRealtime {
		// Only dissimilar (or no) history and too little real-time data:
		// any fit would be unreliable or erroneous.
		return 0, false
	}
	if len(recs) == 0 && len(rt) < 2 {
		return 0, false
	}
	line := fitRecordsJoint(recs, scores, rt, targetAcc)
	// Already past the target on the fitted curve?
	if len(rt) > 0 && rt[len(rt)-1].Y >= targetAcc {
		return len(rt), true
	}
	x, ok := line.XFor(targetAcc)
	if !ok {
		return 0, false
	}
	// A near-flat fitted slope can put the crossing astronomically far
	// out; clamp before the int conversion so the estimate saturates
	// instead of overflowing (the caller treats huge estimates as
	// near-zero progress either way).
	if x > 1e9 {
		x = 1e9
	}
	e := int(math.Ceil(x))
	if e <= len(rt) {
		e = len(rt) + 1
	}
	return e, true
}

// fitRecordsJoint applies the §IV-A weighting with the historical records
// as the unit: every real-time point and the combined history share equal
// weight; within the history each record's share is proportional to a
// sharp power of its similarity score, and is spread over its curve
// points. (Pooling raw points would let one long mediocre curve swamp a
// short well-matched one; equal record shares would still let two vaguely
// similar curves outvote an excellent match.)
//
// Each record's curve is also truncated to its first target crossing and
// capped to an early-epoch window around the job's current position: a
// line fitted through a saturated plateau predicts nothing about
// time-to-target, and in weighted least squares far-x plateau points
// retain enormous leverage even at tiny weights.
func fitRecordsJoint(recs []DLTRecord, scores []float64, rt []Point, targetAcc float64) Line {
	m := len(rt)
	window := 2*m + 2
	if window < 8 {
		window = 8
	}
	var points []Point
	var weights []float64
	if len(recs) > 0 {
		histShare := 1.0
		if m > 0 {
			histShare = 1.0 / float64(m+1)
		}
		// Sharpened similarity weights: a near-exact match dominates
		// partial matches.
		recW := make([]float64, len(recs))
		var recWSum float64
		for i := range recs {
			w := 1.0
			if i < len(scores) && scores[i] > 0 {
				w = math.Pow(scores[i], 4)
			}
			recW[i] = w
			recWSum += w
		}
		for i, rec := range recs {
			curve := rec.AccCurve
			for e, acc := range curve {
				if acc >= targetAcc {
					curve = curve[:e+1]
					break
				}
			}
			if len(curve) > window {
				curve = curve[:window]
			}
			if len(curve) == 0 || recWSum == 0 {
				continue
			}
			perPoint := histShare * recW[i] / recWSum / float64(len(curve))
			for e, acc := range curve {
				points = append(points, Point{X: float64(e + 1), Y: acc})
				weights = append(weights, perPoint)
			}
		}
	}
	if m > 0 {
		share := 1.0
		if len(recs) > 0 {
			share = 1.0 / float64(m+1)
		} else {
			share = 1.0 / float64(m)
		}
		for _, p := range rt {
			points = append(points, p)
			weights = append(weights, share)
		}
	}
	return FitWLS(points, weights)
}

// Overhead reports the cumulative real wall-clock time spent estimating.
func (t *TEE) Overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overhead
}

// Calls reports how many estimates were made.
func (t *TEE) Calls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}
