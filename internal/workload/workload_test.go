package workload

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rotary/internal/aqp"
	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/tpch"
)

func testCatalog(t *testing.T) *tpch.Catalog {
	t.Helper()
	return tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
}

func TestGenerateAQPRespectsSpaces(t *testing.T) {
	specs := GenerateAQP(DefaultAQPWorkload(200, 5))
	if len(specs) != 200 {
		t.Fatalf("%d specs", len(specs))
	}
	classCounts := map[tpch.Class]int{}
	prevArrival := -1.0
	for _, s := range specs {
		cls, err := tpch.ClassOf(s.Query)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if cls != s.Class {
			t.Errorf("%s: class %v but query is %v", s.ID, s.Class, cls)
		}
		classCounts[s.Class]++
		found := false
		for _, a := range AccuracyThresholds {
			if s.Accuracy == a {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: accuracy %v outside Table I space", s.ID, s.Accuracy)
		}
		found = false
		for _, d := range DeadlinesByClass[s.Class] {
			if s.DeadlineSecs == d {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: deadline %v outside the %v space", s.ID, s.DeadlineSecs, s.Class)
		}
		if s.ArrivalSecs < prevArrival {
			t.Errorf("arrivals not monotone at %s", s.ID)
		}
		prevArrival = s.ArrivalSecs
	}
	// 40/30/30 mix within sampling tolerance at n=200.
	if f := float64(classCounts[tpch.Light]) / 200; f < 0.30 || f > 0.50 {
		t.Errorf("light fraction %v, want ≈0.40", f)
	}
}

func TestGenerateAQPDeterministic(t *testing.T) {
	a := GenerateAQP(DefaultAQPWorkload(30, 9))
	b := GenerateAQP(DefaultAQPWorkload(30, 9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs between identical seeds", i)
		}
	}
}

func TestBuildAQPJobAllQueries(t *testing.T) {
	cat := testCatalog(t)
	for _, q := range tpch.AllQueries {
		cls, _ := tpch.ClassOf(q)
		spec := AQPSpec{ID: "t-" + q, Query: q, Class: cls, Accuracy: 0.8,
			DeadlineSecs: 600, BatchRows: 200}
		j, err := BuildAQPJob(cat, spec)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if j.EstMemMB() <= 0 {
			t.Errorf("%s: no memory estimate", q)
		}
		if j.Criteria().Kind != criteria.Accuracy {
			t.Errorf("%s: wrong criteria kind", q)
		}
	}
}

// SubmitAQP hands every built job to submit at its spec's arrival time,
// in spec order, and a spec that does not build stops it with an error
// that names the spec.
func TestSubmitAQP(t *testing.T) {
	cat := testCatalog(t)
	specs := GenerateAQP(DefaultAQPWorkload(5, 2))
	var ids []string
	var ats []sim.Time
	submit := func(j *core.AQPJob, at sim.Time) {
		ids = append(ids, j.ID())
		ats = append(ats, at)
	}
	jobs, err := SubmitAQP(cat, specs, submit)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) || len(ids) != len(specs) {
		t.Fatalf("%d jobs, %d submitted, want %d", len(jobs), len(ids), len(specs))
	}
	for i, s := range specs {
		if jobs[i].ID() != s.ID || ids[i] != s.ID || ats[i] != sim.Time(s.ArrivalSecs) {
			t.Errorf("job %d: built %s, submitted %s at %v; want %s at %v",
				i, jobs[i].ID(), ids[i], ats[i], s.ID, s.ArrivalSecs)
		}
	}

	ids = nil
	specs[2].Query = "q99"
	jobs, err = SubmitAQP(cat, specs, submit)
	if err == nil || !strings.Contains(err.Error(), specs[2].ID) {
		t.Fatalf("unknown query: err %v, want one naming %s", err, specs[2].ID)
	}
	if jobs != nil || len(ids) != 2 {
		t.Errorf("unknown query: %d jobs returned, %d submitted; want none returned and the 2 before it submitted",
			len(jobs), len(ids))
	}
}

// SubmitDLT submits every job at time 0 and names a spec that does not
// build.
func TestSubmitDLT(t *testing.T) {
	specs, err := GenerateDLT(DefaultDLTWorkload(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var ats []sim.Time
	submit := func(j *core.DLTJob, at sim.Time) { ats = append(ats, at) }
	jobs, err := SubmitDLT(specs, submit)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(specs) || !reflect.DeepEqual(ats, make([]sim.Time, len(specs))) {
		t.Fatalf("%d jobs submitted at %v, want %d at 0", len(jobs), ats, len(specs))
	}
	for i, s := range specs {
		if jobs[i].ID() != s.ID {
			t.Errorf("job %d is %s, want %s", i, jobs[i].ID(), s.ID)
		}
	}
	specs[1].Config.Model = "no-such-model"
	if _, err := SubmitDLT(specs, submit); err == nil || !strings.Contains(err.Error(), specs[1].ID) {
		t.Fatalf("unknown model: err %v, want one naming %s", err, specs[1].ID)
	}
}

func TestGenerateDLTRespectsSpaces(t *testing.T) {
	specs, err := GenerateDLT(DefaultDLTWorkload(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 200 {
		t.Fatalf("%d specs", len(specs))
	}
	kindCounts := map[criteria.Kind]int{}
	for _, s := range specs {
		if err := s.Config.Validate(); err != nil {
			t.Fatalf("%s: invalid config: %v", s.ID, err)
		}
		kindCounts[s.Criteria.Kind]++
		spec, _ := dlt.Lookup(s.Config.Model)
		batches := dlt.BatchSizesCV
		if spec.Domain == dlt.NLP {
			batches = dlt.BatchSizesNLP
		}
		found := false
		for _, b := range batches {
			if s.Config.BatchSize == b {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: batch %d outside its domain space", s.ID, s.Config.BatchSize)
		}
	}
	// 60/20/20 mix within tolerance.
	if f := float64(kindCounts[criteria.Convergence]) / 200; f < 0.50 || f > 0.70 {
		t.Errorf("convergence fraction %v, want ≈0.60", f)
	}
	if f := float64(kindCounts[criteria.Runtime]) / 200; f < 0.12 || f > 0.30 {
		t.Errorf("runtime fraction %v, want ≈0.20", f)
	}
}

func TestBuildDLTJob(t *testing.T) {
	specs, err := GenerateDLT(DefaultDLTWorkload(20, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		j, err := BuildDLTJob(s)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if j.MaxEpochs() < 1 {
			t.Errorf("%s: max epochs %d", s.ID, j.MaxEpochs())
		}
	}
}

func TestSeedDLTHistory(t *testing.T) {
	repo := estimate.NewRepository()
	if err := SeedDLTHistory(repo, 25, 30, 2); err != nil {
		t.Fatal(err)
	}
	if repo.DLTCount() != 25 {
		t.Fatalf("seeded %d records, want 25", repo.DLTCount())
	}
}

func TestSeedAQPHistoryCoversEveryQuery(t *testing.T) {
	cat := testCatalog(t)
	repo := estimate.NewRepository()
	if err := SeedAQPHistory(repo, cat, 500); err != nil {
		t.Fatal(err)
	}
	if repo.AQPCount() != len(tpch.AllQueries) {
		t.Fatalf("seeded %d records, want %d", repo.AQPCount(), len(tpch.AllQueries))
	}
	for _, q := range tpch.AllQueries {
		cls, _ := tpch.ClassOf(q)
		recs := repo.TopKSimilarAQP(q, cls.String(), 500, 1)
		if len(recs) != 1 || recs[0].Query != q {
			t.Errorf("%s: no exact historical record", q)
		}
		curve := recs[0].Curve
		if len(curve) < 5 {
			t.Errorf("%s: history curve too short (%d points)", q, len(curve))
			continue
		}
		if last := curve[len(curve)-1]; last.Y < 0.99 {
			t.Errorf("%s: history curve ends at accuracy %v, want ≈1", q, last.Y)
		}
	}
}

// The concurrent seeding must be unobservable: on more goroutines than
// this box has cores, over a cold catalog (so ground truths are computed
// concurrently too), the repository equals one built query by query.
func TestSeedAQPHistoryMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	want := estimate.NewRepository()
	seqCat := testCatalog(t)
	for _, name := range tpch.AllQueries {
		rec, err := aqpHistoryRecord(seqCat, name, 500)
		if err != nil {
			t.Fatal(err)
		}
		want.AddAQP(rec)
	}
	got := estimate.NewRepository()
	if err := SeedAQPHistory(got, testCatalog(t), 500); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrently seeded repository differs from the sequential one")
	}
}

// twoPassHistoryRecord is the seed's former algorithm, kept as its
// oracle: the query's ground truth from a pass of its own, then a second
// run with that truth attached, scored after every 4 batches.
func twoPassHistoryRecord(t *testing.T, cat *tpch.Catalog, name string, batchRows int) estimate.AQPRecord {
	t.Helper()
	q, err := cat.NewQuery(name)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := tpch.ClassOf(name)
	if err != nil {
		t.Fatal(err)
	}
	qBatch := batchRows
	if factRows, ferr := cat.FactRows(name); ferr == nil && factRows/64 < qBatch {
		qBatch = factRows / 64
	}
	qBatch = max(qBatch, 10)
	var secs float64
	var curve []estimate.Point
	for !q.Exhausted() {
		var epochCost float64
		for b := 0; b < 4; b++ {
			rows, cost := q.ProcessBatch(qBatch, 1)
			epochCost += cost
			if rows == 0 {
				break
			}
		}
		secs += epochCost
		curve = append(curve, estimate.Point{X: secs, Y: q.Accuracy()})
	}
	return estimate.AQPRecord{ID: "hist-" + name, Query: name, Class: cls.String(),
		BatchRows: batchRows, Curve: curve}
}

// sameBits reports whether two snapshots agree bit for bit.
func sameBits(a, b aqp.Snapshot) bool {
	if !reflect.DeepEqual(a.Specs, b.Specs) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for g, av := range a.Groups {
		bv, ok := b.Groups[g]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// firstCallAllocs counts the allocations of f's first run, the way
// testing.AllocsPerRun counts them, but without AllocsPerRun's warm-up
// call — which would fill a cold cache before the count began.
func firstCallAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Seeding scans each query once and takes its ground truth from that
// pass's final snapshot. It must produce the repository the two-pass
// algorithm did, leave every truth cached, and cache exactly the truth a
// cold GroundTruth pass computes — at the test and the daemon's scale
// factor, at every batch sizing, with the 22 runs racing on the cache.
func TestSeedAQPHistoryMatchesTwoPass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, sf := range []float64{0.005, 0.02} {
		ds := tpch.Generate(sf, 1)
		for _, batchRows := range []int{200, 500, 2000, 0} {
			oracle := tpch.NewCatalog(ds, 1)
			if batchRows == 0 {
				batchRows = RecommendedBatchRows(oracle)
			}
			want := estimate.NewRepository()
			for _, name := range tpch.AllQueries {
				want.AddAQP(twoPassHistoryRecord(t, oracle, name, batchRows))
			}
			seeded := tpch.NewCatalog(ds, 1)
			got := estimate.NewRepository()
			if err := SeedAQPHistory(got, seeded, batchRows); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SF %v, batch %d: one-pass repository differs from the two-pass one", sf, batchRows)
			}
			for _, name := range tpch.AllQueries {
				if allocs := firstCallAllocs(func() { seeded.GroundTruth(name) }); allocs != 0 {
					t.Errorf("SF %v, batch %d, %s: GroundTruth after seeding allocates %v times, want a cache hit", sf, batchRows, name, allocs)
				}
				a, _ := seeded.GroundTruth(name)
				b, _ := oracle.GroundTruth(name)
				if !sameBits(a, b) {
					t.Errorf("SF %v, batch %d, %s: seeded truth differs from the cold GroundTruth pass", sf, batchRows, name)
				}
			}
		}
	}
}

func TestRecommendedBatchRows(t *testing.T) {
	cat := testCatalog(t)
	b := RecommendedBatchRows(cat)
	rows, _ := cat.FactRows("q1")
	batches := rows / b
	if batches < 100 || batches > 400 {
		t.Errorf("full pass is %d batches, want ≈256", batches)
	}
}

func TestDefaultAQPMemoryMBContends(t *testing.T) {
	cat := testCatalog(t)
	budget := DefaultAQPMemoryMB(cat)
	var total float64
	for _, q := range tpch.AllQueries {
		p, _ := cat.MemoryProfile(q)
		total += p.EstimateMB()
	}
	if budget <= 0 || budget >= total {
		t.Errorf("budget %v vs total %v: not a contended pool", budget, total)
	}
}

func TestAQPWorkloadPersistRoundTrip(t *testing.T) {
	path := t.TempDir() + "/w.json"
	specs := GenerateAQP(DefaultAQPWorkload(12, 4))
	if err := SaveAQPSpecs(path, specs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAQPSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("loaded %d specs, want %d", len(back), len(specs))
	}
	for i := range specs {
		if specs[i] != back[i] {
			t.Fatalf("spec %d diverged: %+v vs %+v", i, specs[i], back[i])
		}
	}
	if _, err := LoadDLTSpecs(path); err == nil {
		t.Error("loaded an AQP file as a DLT workload")
	}
}

func TestDLTWorkloadPersistRoundTrip(t *testing.T) {
	path := t.TempDir() + "/w.json"
	specs, err := GenerateDLT(DefaultDLTWorkload(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDLTSpecs(path, specs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDLTSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("loaded %d specs, want %d", len(back), len(specs))
	}
	for i := range specs {
		if specs[i].ID != back[i].ID || specs[i].Config != back[i].Config ||
			specs[i].Criteria != back[i].Criteria {
			t.Fatalf("spec %d diverged: %+v vs %+v", i, specs[i], back[i])
		}
	}
	if _, err := LoadAQPSpecs(path); err == nil {
		t.Error("loaded a DLT file as an AQP workload")
	}
	if _, err := LoadDLTSpecs(t.TempDir() + "/missing.json"); err == nil {
		t.Error("loaded a missing file")
	}
}
