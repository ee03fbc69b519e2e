package tpch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rotary/internal/aqp"
	"rotary/internal/codec"
)

func testCatalog(t *testing.T, sf float64) *Catalog {
	t.Helper()
	ds := Generate(sf, 42)
	return NewCatalog(ds, 42)
}

func TestAllQueriesProduceGroundTruth(t *testing.T) {
	cat := testCatalog(t, 0.01)
	for _, name := range AllQueries {
		truth, err := cat.GroundTruth(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(truth.Groups) == 0 {
			t.Errorf("%s: ground truth has no groups", name)
		}
		if len(truth.Specs) == 0 {
			t.Errorf("%s: ground truth has no aggregate specs", name)
		}
	}
}

func TestAllQueriesConvergeToFullAccuracy(t *testing.T) {
	cat := testCatalog(t, 0.01)
	for _, name := range AllQueries {
		q, err := cat.NewQuery(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prev := -1.0
		drops := 0
		for !q.Exhausted() {
			rows, cost := q.ProcessBatch(5000, 2)
			if rows == 0 {
				break
			}
			if cost <= 0 {
				t.Fatalf("%s: non-positive batch cost %v", name, cost)
			}
			acc := q.Accuracy()
			if acc < 0 || acc > 1 {
				t.Fatalf("%s: accuracy %v out of range", name, acc)
			}
			if acc < prev-0.05 {
				drops++ // accuracy may wiggle (AVG/MIN) but not collapse often
			}
			prev = acc
		}
		if got := q.Accuracy(); got < 0.999 {
			t.Errorf("%s: accuracy at exhaustion = %v, want ≈1", name, got)
		}
		if got := q.DataProgress(); got < 0.999 {
			t.Errorf("%s: data progress at exhaustion = %v, want 1", name, got)
		}
		if drops > 5 {
			t.Errorf("%s: accuracy collapsed %d times while streaming", name, drops)
		}
	}
}

// Every query, on both data paths (the aux-state queries run interleaved,
// the rest partitioned), checkpointed at 0 %, ~15 %, ~60 % and 100 % of its
// stream: Checkpoint → Restore → Checkpoint is byte-identical, the restored
// copy reports bit-identical results, and continuing it lands exactly
// where a query that was never checkpointed lands.
func TestQueryCheckpointRestoreRoundTrip(t *testing.T) {
	cat := testCatalog(t, 0.01)
	for _, name := range AllQueries {
		total, err := cat.FactRows(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() aqp.OnlineQuery {
			q, err := cat.NewQuery(name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return q
		}
		never := fresh() // drained in lockstep, never checkpointed
		restored := fresh()
		for _, upTo := range []int{0, total * 15 / 100, total * 60 / 100, total} {
			label := fmt.Sprintf("%s at %d/%d rows", name, upTo, total)
			for int(never.RowsProcessed()) < upTo {
				n := min(1500, upTo-int(never.RowsProcessed()))
				never.ProcessBatch(n, 2)
				restored.ProcessBatch(n, 3)
			}
			cp, err := restored.Checkpoint()
			if err != nil {
				t.Fatalf("%s: checkpoint: %v", label, err)
			}
			// Each stage continues from a copy rebuilt from bytes alone.
			restored = fresh()
			if err := restored.Restore(cp); err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			if cp2, _ := restored.Checkpoint(); !bytes.Equal(cp, cp2) {
				t.Fatalf("%s: re-checkpoint differs (%d vs %d bytes)", label, len(cp), len(cp2))
			}
			snap := never.Snapshot()
			requireIdenticalSnapshots(t, label, snap, restored.Snapshot())
			requireIdenticalIntervals(t, label, snap, never, restored)
			if a, b := never.Accuracy(), restored.Accuracy(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: accuracy %v vs %v", label, a, b)
			}
			if never.RowsProcessed() != restored.RowsProcessed() || never.DataProgress() != restored.DataProgress() ||
				never.StateMemMB() != restored.StateMemMB() {
				t.Fatalf("%s: rows %d/%d progress %v/%v state %v/%v MB", label,
					never.RowsProcessed(), restored.RowsProcessed(), never.DataProgress(), restored.DataProgress(),
					never.StateMemMB(), restored.StateMemMB())
			}
		}
		if !restored.Exhausted() || restored.Accuracy() < 0.999 {
			t.Errorf("%s: restored copy ended at progress %v accuracy %v", name, restored.DataProgress(), restored.Accuracy())
		}
	}
}

// A checkpoint whose aux section is damaged, or names a key or a Q21
// entry that cannot exist, must not half-install: the aux-state queries
// keep their live state and go on to the exact answer.
func TestFailedAuxRestoreLeavesQueryUntouched(t *testing.T) {
	cat := testCatalog(t, 0.01)
	nOrders, nParts := int64(len(cat.ds.Orders)), int64(len(cat.ds.Parts))
	var multi int64 // an order with more than one line
	for i := range cat.ds.Orders {
		if cat.ds.Orders[i].LineCount > 1 {
			multi = int64(cat.ds.Orders[i].OrderKey)
			break
		}
	}
	lines := uint64(cat.order(int32(multi)).LineCount)
	q21 := func(seen uint64, supps, late []int32) []byte {
		return appendKeys(appendKeys(binary.AppendUvarint(nil, seen), supps), late)
	}
	type entry struct {
		key   int64
		value []byte
	}
	aux := map[string]struct {
		keys  int64
		valid entry            // restores on a fresh query
		bad   map[string]entry // each rejected
	}{
		"q4":  {keys: nOrders, valid: entry{1, nil}},
		"q17": {keys: nParts, valid: entry{1, binary.AppendUvarint(codec.AppendFloat(nil, 5), 1)}},
		"q18": {keys: nOrders, valid: entry{1, append(codec.AppendFloat(nil, 5), 0)}},
		"q21": {keys: nOrders, valid: entry{multi, q21(1, []int32{1}, []int32{1})}, bad: map[string]entry{
			"all lines seen":           {multi, q21(lines, []int32{1}, nil)},
			"more suppliers than seen": {multi, q21(1, []int32{1, 2}, nil)},
			"more late than seen":      {multi, q21(1, []int32{1}, []int32{1, 2})},
		}},
	}
	for _, name := range []string{"q4", "q17", "q18", "q21"} {
		donor, _ := cat.NewQuery(name)
		donor.ProcessBatch(20000, 1)
		good, _ := donor.Checkpoint()
		a := aux[name]
		fresh, _ := cat.NewQuery(name)
		pristine, _ := fresh.Checkpoint()
		if err := fresh.Restore(withAuxEntry(pristine, a.valid.key, a.valid.value)); err != nil {
			t.Fatalf("%s: a valid entry was rejected: %v", name, err)
		}
		cases := map[string][]byte{
			"aux cut short": good[:len(good)-3], "aux byte appended": append(good[:len(good):len(good)], 1),
			"key 0":         withAuxEntry(pristine, 0, a.valid.value),
			"key -5":        withAuxEntry(pristine, -5, a.valid.value),
			"key past last": withAuxEntry(pristine, a.keys+1, a.valid.value),
			"key 2^30":      withAuxEntry(pristine, 1<<30, a.valid.value),
		}
		for what, e := range a.bad {
			cases[what] = withAuxEntry(pristine, e.key, e.value)
		}
		q, _ := cat.NewQuery(name)
		control, _ := cat.NewQuery(name)
		q.ProcessBatch(9000, 1)
		control.ProcessBatch(9000, 1)
		before, _ := q.Checkpoint()
		for what, data := range cases {
			if err := q.Restore(data); err == nil {
				t.Errorf("%s: %s: restore accepted it", name, what)
			}
			if after, _ := q.Checkpoint(); !bytes.Equal(before, after) {
				t.Fatalf("%s: %s: failed restore changed the query", name, what)
			}
		}
		for !q.Exhausted() {
			q.ProcessBatch(5000, 1)
			control.ProcessBatch(5000, 1)
		}
		requireIdenticalSnapshots(t, name+" after failed restores", control.Snapshot(), q.Snapshot())
	}
}

func TestMemoryProfilesMatchTableIClasses(t *testing.T) {
	cat := testCatalog(t, 0.02)
	classMax := map[Class]float64{}
	classMin := map[Class]float64{Light: 1e18, Medium: 1e18, Heavy: 1e18}
	for _, name := range AllQueries {
		prof, err := cat.MemoryProfile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mb := prof.EstimateMB()
		if mb <= 0 {
			t.Errorf("%s: non-positive memory estimate", name)
		}
		cls, _ := ClassOf(name)
		if mb > classMax[cls] {
			classMax[cls] = mb
		}
		if mb < classMin[cls] {
			classMin[cls] = mb
		}
	}
	// The class medians must be ordered; allow overlap at the extremes but
	// require heavy-min > light-min and heavy-max > light-max.
	if classMax[Heavy] <= classMax[Light] {
		t.Errorf("heavy max %.1f MB not above light max %.1f MB", classMax[Heavy], classMax[Light])
	}
	if classMin[Heavy] <= classMin[Light] {
		t.Errorf("heavy min %.1f MB not above light min %.1f MB", classMin[Heavy], classMin[Light])
	}
}

func TestCostModelClassOrdering(t *testing.T) {
	cat := testCatalog(t, 0.01)
	fullPass := func(name string) float64 {
		cm, err := cat.CostModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, _ := cat.FactRows(name)
		return cm.BatchCost(rows, 1)
	}
	if l, h := fullPass("q19"), fullPass("q7"); h < 2.5*l {
		t.Errorf("q7 full pass %.0fs not ≫ q19 %.0fs (Fig 1a shape)", h, l)
	}
	if l, m := fullPass("q19"), fullPass("q5"); m < 1.5*l {
		t.Errorf("q5 full pass %.0fs not > q19 %.0fs", m, l)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(0.005, 7)
	b := Generate(0.005, 7)
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	for i := range a.Lineitems {
		if a.Lineitems[i] != b.Lineitems[i] {
			t.Fatalf("lineitem %d differs", i)
		}
	}
	c := Generate(0.005, 8)
	same := 0
	for i := range a.Lineitems {
		if i < len(c.Lineitems) && a.Lineitems[i] == c.Lineitems[i] {
			same++
		}
	}
	if same == len(a.Lineitems) {
		t.Fatal("different seeds produced identical lineitems")
	}
}

func TestDateRoundTrip(t *testing.T) {
	cases := []struct{ y, m, d int }{
		{1992, 1, 1}, {1995, 6, 17}, {1998, 8, 2}, {1996, 2, 29}, {1994, 12, 31},
	}
	for _, c := range cases {
		dt := MakeDate(c.y, c.m, c.d)
		if dt.Year() != c.y || dt.Month() != c.m {
			t.Errorf("MakeDate(%d,%d,%d) round-trips to year=%d month=%d", c.y, c.m, c.d, dt.Year(), dt.Month())
		}
	}
	if MakeDate(1992, 1, 1) != 0 {
		t.Errorf("epoch is not zero: %d", MakeDate(1992, 1, 1))
	}
	if MakeDate(1992, 1, 2) != 1 {
		t.Errorf("day arithmetic broken: %d", MakeDate(1992, 1, 2))
	}
}

func TestDatasetStats(t *testing.T) {
	cat := testCatalog(t, 0.005)
	stats := cat.Dataset().Stats()
	if len(stats) != 8 {
		t.Fatalf("%d tables, want 8", len(stats))
	}
	byName := map[string]TableStats{}
	for _, ts := range stats {
		byName[ts.Name] = ts
	}
	li := byName["lineitem"]
	if li.Rows != len(cat.Dataset().Lineitems) {
		t.Errorf("lineitem rows %d, want %d", li.Rows, len(cat.Dataset().Lineitems))
	}
	disc, ok := li.ColumnByName("l_discount")
	if !ok {
		t.Fatal("no l_discount stats")
	}
	if disc.Min < 0 || disc.Max > 0.10+1e-9 || disc.Distinct != 11 {
		t.Errorf("l_discount stats %+v, want 11 distinct values in [0, 0.10]", disc)
	}
	rf, _ := li.ColumnByName("l_returnflag")
	if rf.Distinct != 3 {
		t.Errorf("l_returnflag distinct %d, want 3 (R/A/N)", rf.Distinct)
	}
	nk, _ := byName["nation"].ColumnByName("n_nationkey")
	if nk.Distinct != 25 || nk.Min != 0 || nk.Max != 24 {
		t.Errorf("n_nationkey stats %+v", nk)
	}
	if out := RenderStats(stats); len(out) == 0 {
		t.Error("empty stats render")
	}
}

func TestDescribeAllQueries(t *testing.T) {
	cat := testCatalog(t, 0.005)
	for _, q := range AllQueries {
		out, err := cat.Describe(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty description", q)
		}
	}
	if _, err := cat.Describe("q99"); err == nil {
		t.Error("described an unknown query")
	}
}

// EpochCost prices an epoch without running it: for every query, batch
// size, thread count and epoch length — at the head of the stream, across
// the short tail batch, and on the exhausted stream — it equals the sum of
// the costs ProcessBatch then returns, bit for bit, and leaves the
// checkpoint bytes as they were.
func TestEpochCostMatchesProcessBatch(t *testing.T) {
	cat := testCatalog(t, 0.01)
	q1Rows, err := cat.FactRows("q1")
	if err != nil {
		t.Fatal(err)
	}
	recommended := max(50, q1Rows/256) // workload.RecommendedBatchRows
	for _, name := range AllQueries {
		total, err := cat.FactRows(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, batchRows := range []int{1, 10, recommended} {
			for _, threads := range []int{1, 4} {
				for _, batches := range []int{1, 4, 16} {
					q, err := cat.NewQuery(name)
					if err != nil {
						t.Fatal(err)
					}
					epoch := func(at string) (rows int) {
						label := fmt.Sprintf("%s batch %d × %d at %d threads, %s", name, batchRows, batches, threads, at)
						before, _ := q.Checkpoint()
						planned := q.EpochCost(batchRows, batches, threads)
						if after, _ := q.Checkpoint(); !bytes.Equal(before, after) {
							t.Fatalf("%s: EpochCost changed the checkpoint", label)
						}
						var ran float64
						for b := 0; b < batches; b++ {
							n, cost := q.ProcessBatch(batchRows, threads)
							ran += cost
							rows += n
							if n == 0 {
								break
							}
						}
						if math.Float64bits(planned) != math.Float64bits(ran) {
							t.Fatalf("%s: EpochCost %v, ProcessBatch summed %v", label, planned, ran)
						}
						return rows
					}
					epoch("head")
					epoch("second epoch")
					// Leave one full epoch, then one that ends in a short batch.
					tail := batchRows*batches + batchRows*batches/2 + 1
					if left := total - int(q.RowsProcessed()); left > tail {
						q.ProcessBatch(left-tail, 1)
					}
					for !q.Exhausted() {
						epoch("tail")
					}
					if rows := epoch("exhausted"); rows != 0 || q.EpochCost(batchRows, batches, threads) != 0 {
						t.Fatalf("%s: exhausted stream yielded %d rows at cost %v", name, rows, q.EpochCost(batchRows, batches, threads))
					}
				}
			}
		}
	}
}

// TestQueriesShareOnePreparedFinal: every job of a query shares one
// prepared final answer, built once per ground truth; each job's
// accuracy stays bit-identical to scoring its snapshot with
// aqp.Accuracy, and SetGroundTruth replaces the shared answer.
func TestQueriesShareOnePreparedFinal(t *testing.T) {
	cat := testCatalog(t, 0.005)
	type prepared interface{ Final() *aqp.Final }
	build := func() aqp.OnlineQuery {
		q, err := cat.NewQuery("q9")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a, b := build(), build()
	fa, fb := a.(prepared).Final(), b.(prepared).Final()
	if fa == nil || fa != fb {
		t.Fatalf("two q9 jobs hold finals %p and %p, want one shared", fa, fb)
	}
	truth, err := cat.GroundTruth("q9")
	if err != nil {
		t.Fatal(err)
	}
	same := func(q aqp.OnlineQuery, final aqp.Snapshot) {
		t.Helper()
		got, want := q.Accuracy(), aqp.Accuracy(q.Snapshot(), final)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("accuracy %v, aqp.Accuracy %v", got, want)
		}
	}
	for i := 0; i < 6; i++ {
		a.ProcessBatch(300, 1)
		b.ProcessBatch(300, 2)
		b.ProcessBatch(300, 2)
		same(a, truth)
		same(b, truth)
	}

	// A replaced truth invalidates the shared answer: later jobs score
	// against the new one, jobs already built keep theirs.
	half := a.Snapshot()
	cat.SetGroundTruth("q9", half)
	c := build()
	if fc := c.(prepared).Final(); fc == fa {
		t.Fatal("SetGroundTruth left the old prepared final in place")
	}
	c.ProcessBatch(300, 1)
	same(c, half)
	same(a, truth)
}
