package estimate

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"rotary/internal/sim"
	"rotary/internal/tpch"
)

// unboundedAQP is the reference history: every record kept, all of them
// scored and stable-sorted on every request.
type unboundedAQP []AQPRecord

func (u unboundedAQP) topK(query, class string, batchRows, k int) []AQPRecord {
	type scoredAQP struct {
		i     int
		score float64
	}
	var scored []scoredAQP
	for i, rec := range u {
		var s float64
		switch {
		case rec.Query == query:
			s = 2
		case rec.Class == class:
			s = 1
		default:
			continue
		}
		scored = append(scored, scoredAQP{i, s + Similarity(float64(rec.BatchRows), float64(batchRows))})
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
	var out []AQPRecord
	for i := 0; i < len(scored) && i < k; i++ {
		out = append(out, u[scored[i].i])
	}
	return out
}

// The pools make cross-key score ties common: two queries of one class at
// one batch size tie, and batch sizes 100 and 400 tie against a request
// for 200.
var (
	propQueries = []string{"qa", "qb", "qc", "qd"}
	propClasses = []string{"light", "heavy"}
	propBatches = []int{100, 200, 400, 800}
)

func randomRecord(r *sim.Rand, id int) AQPRecord {
	return AQPRecord{
		ID:        fmt.Sprint(id),
		Query:     sim.Pick(r, propQueries),
		Class:     sim.Pick(r, propClasses),
		BatchRows: sim.Pick(r, propBatches),
		Curve:     []Point{{X: float64(id), Y: r.Float64()}},
	}
}

func ids(recs []AQPRecord) []string {
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.ID
	}
	return out
}

// sameAnswers checks every request over the pools against the reference
// at the largest k the bound serves; a smaller k's answer is a prefix.
func sameAnswers(t *testing.T, label string, got *Repository, want unboundedAQP) {
	t.Helper()
	const k = aqpKeepPerKey
	for _, q := range propQueries {
		for _, c := range propClasses {
			for _, b := range propBatches {
				g, w := ids(got.TopKSimilarAQP(q, c, b, k)), ids(want.topK(q, c, b, k))
				if !slices.Equal(g, w) {
					t.Fatalf("%s: top-%d(%s,%s,%d) = %v, unbounded history says %v", label, k, q, c, b, g, w)
				}
			}
		}
	}
}

func TestBoundedHistoryMatchesUnbounded(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := sim.NewRand(seed)
		repo := NewRepository()
		var ref unboundedAQP
		for op := 0; op < 120; op++ {
			if r.Float64() < 0.7 {
				rec := randomRecord(r, op)
				repo.AddAQP(rec)
				ref = append(ref, rec)
				continue
			}
			q, c, b := sim.Pick(r, propQueries), sim.Pick(r, propClasses), sim.Pick(r, propBatches)
			k := 1 + r.IntN(aqpKeepPerKey)
			g, w := ids(repo.TopKSimilarAQP(q, c, b, k)), ids(ref.topK(q, c, b, k))
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d op %d: top-%d(%s,%s,%d) = %v, unbounded history says %v", seed, op, k, q, c, b, g, w)
			}
		}
		sameAnswers(t, fmt.Sprintf("seed %d", seed), repo, ref)

		// An over-full record set, cloned, keeps the same reachable records.
		overFull := &Repository{aqp: append([]AQPRecord(nil), ref...)}
		cloned := overFull.Clone()
		sameAnswers(t, fmt.Sprintf("seed %d, cloned", seed), cloned, ref)
		if cloned.AQPCount() != repo.AQPCount() {
			t.Fatalf("seed %d: cloned %d records, added %d", seed, cloned.AQPCount(), repo.AQPCount())
		}
	}
}

func TestHistoryKeepsAtMostKPerKey(t *testing.T) {
	repo := NewRepository()
	for i := 0; i < 5000; i++ {
		q := tpch.AllQueries[i%len(tpch.AllQueries)]
		cls, err := tpch.ClassOf(q)
		if err != nil {
			t.Fatal(err)
		}
		repo.AddAQP(AQPRecord{ID: fmt.Sprint(i), Query: q, Class: cls.String(), BatchRows: 500})
	}
	if got, want := repo.AQPCount(), aqpKeepPerKey*len(tpch.AllQueries); got != want {
		t.Fatalf("kept %d records, want %d", got, want)
	}
	for k, n := range repo.perKey {
		if n != aqpKeepPerKey {
			t.Errorf("key %v holds %d records", k, n)
		}
	}
}

// TestEstimateCacheUnderConcurrentAdds races AddAQP against EstimateAt on
// one repository and estimator, then checks the warm cache answers what a
// fresh estimator computes from the final history.
func TestEstimateCacheUnderConcurrentAdds(t *testing.T) {
	repo := NewRepository()
	est := NewAccuracyProgress(repo)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		r := sim.NewRand(1)
		for i := 0; i < 400; i++ {
			rec := randomRecord(r, i)
			rec.Curve = []Point{{X: 1, Y: r.Float64()}, {X: 2, Y: r.Float64()}}
			repo.AddAQP(rec)
		}
	}()
	for g := 0; g < 2; g++ {
		go func(seed uint64) {
			defer wg.Done()
			r := sim.NewRand(seed)
			for i := 0; i < 400; i++ {
				est.EstimateAt(sim.Pick(r, propQueries), sim.Pick(r, propClasses), sim.Pick(r, propBatches), nil, 3)
			}
		}(uint64(g + 2))
	}
	wg.Wait()
	fresh := NewAccuracyProgress(repo)
	for _, q := range propQueries {
		for _, c := range propClasses {
			for _, b := range propBatches {
				g, gok := est.EstimateAt(q, c, b, nil, 3)
				w, wok := fresh.EstimateAt(q, c, b, nil, 3)
				if g != w || gok != wok {
					t.Fatalf("(%s,%s,%d): cached estimate %v,%v, fresh %v,%v", q, c, b, g, gok, w, wok)
				}
			}
		}
	}
}

// BenchmarkEstimateAt times one warm estimate against a history grown by
// n terminal jobs over the Table-I queries, as a long-lived daemon's is.
func BenchmarkEstimateAt(b *testing.B) {
	curve := make([]Point, 20)
	for i := range curve {
		curve[i] = Point{X: float64(10 * (i + 1)), Y: float64(i+1) / float64(len(curve))}
	}
	realtime := curve[:4]
	classes := make([]string, len(tpch.AllQueries))
	for i, q := range tpch.AllQueries {
		cls, err := tpch.ClassOf(q)
		if err != nil {
			b.Fatal(err)
		}
		classes[i] = cls.String()
	}
	for _, n := range []int{22, 200, 1000, 5000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			repo := NewRepository()
			for i := 0; i < n; i++ {
				q := i % len(tpch.AllQueries)
				repo.AddAQP(AQPRecord{ID: fmt.Sprint(i), Query: tpch.AllQueries[q], Class: classes[q], BatchRows: 500, Curve: curve})
			}
			est := NewAccuracyProgress(repo)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % len(tpch.AllQueries)
				est.EstimateAt(tpch.AllQueries[q], classes[q], 500, realtime, 300)
			}
		})
	}
}
