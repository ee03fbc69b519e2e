package estimate

import (
	"math"
	"sort"
	"sync"
)

// DLTRecord is one completed deep learning training job in the historical
// repository. §IV-B: "All the completed jobs' information are stored,
// including model architecture, training hyperparameters, training epochs,
// and evaluation accuracy."
type DLTRecord struct {
	ID        string    `json:"id"`
	Model     string    `json:"model"`
	Family    string    `json:"family"`
	Dataset   string    `json:"dataset"`
	ParamsM   float64   `json:"params_m"`
	BatchSize int       `json:"batch_size"`
	Optimizer string    `json:"optimizer"`
	LR        float64   `json:"lr"`
	Epochs    int       `json:"epochs"`
	AccCurve  []float64 `json:"acc_curve"` // accuracy after each epoch
	PeakMemMB float64   `json:"peak_mem_mb"`
	EpochSecs float64   `json:"epoch_secs"`
}

// AQPRecord is one terminal AQP job: its progress-runtime curve plus the
// query features §IV-A's similarity search keys on (predicates, tables and
// columns are summarized by the query name; the batch size is explicit).
type AQPRecord struct {
	ID        string  `json:"id"`
	Query     string  `json:"query"`
	Class     string  `json:"class"`
	BatchRows int     `json:"batch_rows"`
	Curve     []Point `json:"curve"` // (runtime seconds, accuracy progress)
}

// aqpKeepPerKey is how many AQP records the repository keeps per
// (query, class, batch rows) key. A record's similarity score depends only
// on its key, and ties keep insertion order, so no TopKSimilarAQP request
// with k ≤ aqpKeepPerKey can ever return a record past the first
// aqpKeepPerKey of its key: the repository drops those on arrival.
const aqpKeepPerKey = 3

// aqpKey is the part of an AQPRecord its similarity score reads.
type aqpKey struct {
	query, class string
	batchRows    int
}

// Repository stores historical job information in memory. It is safe
// for concurrent use.
type Repository struct {
	mu  sync.RWMutex
	dlt []DLTRecord
	// aqp holds the kept AQP records in insertion order; perKey counts
	// them by key. aqpVersion changes whenever a record is kept, so
	// readers can cache what they derived from the records.
	aqp        []AQPRecord
	perKey     map[aqpKey]int
	aqpVersion uint64
}

// NewRepository returns an empty in-memory repository.
func NewRepository() *Repository { return &Repository{perKey: make(map[aqpKey]int)} }

// Clone returns an in-memory copy of the repository's records. Runs that
// record their own history into the repository use clones so a shared
// seeded baseline stays pristine.
func (r *Repository) Clone() *Repository {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := NewRepository()
	c.dlt = append([]DLTRecord(nil), r.dlt...)
	for _, rec := range r.aqp {
		c.keepAQP(rec)
	}
	return c
}

// AddDLT stores a completed DLT job.
func (r *Repository) AddDLT(rec DLTRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dlt = append(r.dlt, rec)
}

// AddAQP stores a terminal AQP job's curve, whether the job attained or
// expired, unless its (query, class, batch rows) key already holds 3
// records: a later record of the same key could never be retrieved.
func (r *Repository) AddAQP(rec AQPRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keepAQP(rec)
}

// keepAQP appends rec if its key has room. The caller holds r.mu.
func (r *Repository) keepAQP(rec AQPRecord) {
	k := aqpKey{rec.Query, rec.Class, rec.BatchRows}
	if r.perKey[k] >= aqpKeepPerKey {
		return
	}
	r.perKey[k]++
	r.aqp = append(r.aqp, rec)
	r.aqpVersion++
}

// DLTCount and AQPCount report stored record counts.
func (r *Repository) DLTCount() int { r.mu.RLock(); defer r.mu.RUnlock(); return len(r.dlt) }

// AQPCount reports the number of kept AQP records.
func (r *Repository) AQPCount() int { r.mu.RLock(); defer r.mu.RUnlock(); return len(r.aqp) }

// RemoveDLT deletes records matching keep==false, returning how many were
// removed. The Fig. 11 ablation uses it to strip the NLP history.
func (r *Repository) RemoveDLT(keep func(DLTRecord) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.dlt[:0]
	removed := 0
	for _, rec := range r.dlt {
		if keep(rec) {
			kept = append(kept, rec)
		} else {
			removed++
		}
	}
	r.dlt = kept
	return removed
}

// DLTQuery describes a target job for similarity search.
type DLTQuery struct {
	Model     string
	Family    string
	Dataset   string
	ParamsM   float64
	BatchSize int
	Optimizer string
	LR        float64
}

// scored pairs a record with its similarity to a query.
type scoredDLT struct {
	rec   DLTRecord
	score float64
}

// dltSimilarity scores a historical record against a target job on the
// §IV-B metadata: training dataset, hyperparameters (learning rate, batch
// size, optimizer), and architecture family. requireDataset restricts the
// match to same-dataset records.
func dltSimilarity(q DLTQuery, rec DLTRecord, requireDataset bool) float64 {
	s := 0.0
	if rec.Dataset == q.Dataset {
		s += 0.20
	} else if requireDataset {
		return 0
	}
	if rec.Family == q.Family {
		s += 0.25
	}
	if rec.Model == q.Model {
		s += 0.10
	}
	if rec.Optimizer == q.Optimizer {
		s += 0.15
	}
	s += 0.10 * Similarity(float64(rec.BatchSize), float64(q.BatchSize))
	// Learning rates live on a log scale: 1e-5 vs 1e-2 must score near
	// zero while 1e-2 vs 3e-2 scores high, or similarity search retrieves
	// well-tuned history for hopelessly-tuned jobs (and TEE then predicts
	// convergence that will never come).
	s += 0.20 * logSimilarity(rec.LR, q.LR)
	return s
}

// logSimilarity compares two positive magnitudes on a log10 scale,
// decaying by half per decade of distance.
func logSimilarity(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	d := math.Abs(math.Log10(a / b))
	return math.Exp(-0.7 * d)
}

// TopKSimilarDLT returns the k most similar historical DLT jobs to the
// query, best first. Same-dataset records are preferred; when none exist
// the search relaxes to dissimilar (cross-dataset) records — §V-B3's
// regime, where "the estimation … [is] unreliable and even erroneous"
// after the matching history is removed. Fewer than k records may be
// returned.
func (r *Repository) TopKSimilarDLT(q DLTQuery, k int) []DLTRecord {
	recs, _ := r.TopKSimilarDLTScored(q, k)
	return recs
}

// TopKSimilarDLTScored is TopKSimilarDLT plus the similarity scores,
// which TEE uses to weight the records within the historical share.
func (r *Repository) TopKSimilarDLTScored(q DLTQuery, k int) ([]DLTRecord, []float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, requireDataset := range []bool{true, false} {
		scored := make([]scoredDLT, 0, len(r.dlt))
		for _, rec := range r.dlt {
			if s := dltSimilarity(q, rec, requireDataset); s > 0 {
				scored = append(scored, scoredDLT{rec, s})
			}
		}
		if len(scored) == 0 {
			continue
		}
		sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
		if len(scored) > k {
			scored = scored[:k]
		}
		out := make([]DLTRecord, len(scored))
		ws := make([]float64, len(scored))
		for i, s := range scored {
			out[i] = s.rec
			ws[i] = s.score
		}
		return out, ws
	}
	return nil, nil
}

// TopKSimilarBySize returns the k historical DLT jobs on the same dataset
// most similar in model size (§IV-B's TME retrieval), best first,
// together with their similarity weights.
func (r *Repository) TopKSimilarBySize(dataset string, paramsM float64, k int) ([]DLTRecord, []float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	scored := make([]scoredDLT, 0, len(r.dlt))
	for _, rec := range r.dlt {
		if rec.Dataset != dataset {
			continue
		}
		scored = append(scored, scoredDLT{rec, Similarity(rec.ParamsM, paramsM)})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
	if len(scored) > k {
		scored = scored[:k]
	}
	recs := make([]DLTRecord, len(scored))
	ws := make([]float64, len(scored))
	for i, s := range scored {
		recs[i] = s.rec
		ws[i] = s.score
	}
	return recs, ws
}

// TopKSimilarAQP returns the k most similar historical AQP jobs: exact
// query-name matches first (same predicates, tables, columns), then
// same-class queries, ranked by batch-size similarity within each tier.
// For k ≤ 3 the answer is the one an unbounded history would give.
func (r *Repository) TopKSimilarAQP(query, class string, batchRows, k int) []AQPRecord {
	recs, _ := r.topKSimilarAQP(query, class, batchRows, k)
	return recs
}

// topKSimilarAQP is TopKSimilarAQP plus the version of the records it
// read, taken under the same lock.
func (r *Repository) topKSimilarAQP(query, class string, batchRows, k int) ([]AQPRecord, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	type scoredAQP struct {
		i     int // index into r.aqp
		score float64
	}
	scored := make([]scoredAQP, 0, len(r.aqp))
	for i, rec := range r.aqp {
		var s float64
		switch {
		case rec.Query == query:
			s = 2
		case rec.Class == class:
			s = 1
		default:
			continue
		}
		s += Similarity(float64(rec.BatchRows), float64(batchRows))
		scored = append(scored, scoredAQP{i, s})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
	if len(scored) > k {
		scored = scored[:k]
	}
	out := make([]AQPRecord, len(scored))
	for i, s := range scored {
		out[i] = r.aqp[s.i]
	}
	return out, r.aqpVersion
}

// aqpVersionNow reports the current AQP record version.
func (r *Repository) aqpVersionNow() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.aqpVersion
}
