package aqp

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"rotary/internal/codec"
	"rotary/internal/sim"
	"rotary/internal/stream"
)

func TestAggKindsReduceCorrectly(t *testing.T) {
	gt := NewGroupTable([]AggSpec{
		{Name: "s", Kind: Sum}, {Name: "c", Kind: Count}, {Name: "a", Kind: Avg},
		{Name: "mn", Kind: Min}, {Name: "mx", Kind: Max},
	})
	for _, v := range []float64{4, -2, 10} {
		gt.Update("g", v, v, v, v, v)
	}
	vals := gt.Snapshot().Groups["g"]
	want := []float64{12, 3, 4, -2, 10}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Errorf("col %d = %v, want %v", i, vals[i], w)
		}
	}
}

func TestNaNSkipsColumn(t *testing.T) {
	gt := NewGroupTable([]AggSpec{{Name: "s", Kind: Sum}, {Name: "c", Kind: Count}})
	gt.Update("g", math.NaN(), 1)
	gt.Update("g", 5, 1)
	vals := gt.Snapshot().Groups["g"]
	if vals[0] != 5 {
		t.Errorf("sum with NaN skip = %v, want 5", vals[0])
	}
	if vals[1] != 2 {
		t.Errorf("count = %v, want 2", vals[1])
	}
}

func TestAccuracyIdentityAndBounds(t *testing.T) {
	mk := func(vals map[string][]float64) Snapshot {
		return Snapshot{Specs: []AggSpec{{Name: "x", Kind: Sum}}, Groups: vals}
	}
	full := mk(map[string][]float64{"a": {100}, "b": {50}})
	if got := Accuracy(full, full); got != 1 {
		t.Errorf("Accuracy(s, s) = %v, want 1", got)
	}
	half := mk(map[string][]float64{"a": {50}, "b": {25}})
	if got := Accuracy(half, full); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("half accuracy = %v, want 0.5", got)
	}
	missing := mk(map[string][]float64{"a": {100}})
	if got := Accuracy(missing, full); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("missing-group accuracy = %v, want 0.5", got)
	}
	opposite := mk(map[string][]float64{"a": {-100}, "b": {-50}})
	if got := Accuracy(opposite, full); got != 0 {
		t.Errorf("opposite-sign accuracy = %v, want 0", got)
	}
}

func TestAccuracyPropertyBounds(t *testing.T) {
	check := func(seed uint64, groups uint8) bool {
		r := sim.NewRand(seed)
		specs := []AggSpec{{Name: "a", Kind: Sum}, {Name: "b", Kind: Avg}}
		cur := Snapshot{Specs: specs, Groups: map[string][]float64{}}
		fin := Snapshot{Specs: specs, Groups: map[string][]float64{}}
		n := int(groups)%10 + 1
		for i := 0; i < n; i++ {
			g := string(rune('a' + i))
			fin.Groups[g] = []float64{r.Range(-100, 100), r.Range(-100, 100)}
			if r.Float64() < 0.8 {
				cur.Groups[g] = []float64{r.Range(-100, 100), r.Range(-100, 100)}
			}
		}
		acc := Accuracy(cur, fin)
		return acc >= 0 && acc <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyWeightsHonored(t *testing.T) {
	specs := []AggSpec{{Name: "x", Kind: Sum, Weight: 3}, {Name: "y", Kind: Sum, Weight: 1}}
	full := Snapshot{Specs: specs, Groups: map[string][]float64{"g": {100, 100}}}
	cur := Snapshot{Specs: specs, Groups: map[string][]float64{"g": {100, 0}}}
	// x exact (weight 3/4), y zero (weight 1/4) → 0.75.
	if got := Accuracy(cur, full); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("weighted accuracy = %v, want 0.75", got)
	}
}

func TestGroupTableRoundTrip(t *testing.T) {
	specs := []AggSpec{{Name: "s", Kind: Sum}, {Name: "m", Kind: Min}}
	check := func(seed uint64, rows uint8) bool {
		r := sim.NewRand(seed)
		gt := NewGroupTable(specs)
		for i := 0; i < int(rows); i++ {
			gt.Update(string(rune('a'+r.IntN(5))), r.Range(-10, 10), r.Range(-10, 10))
		}
		data := gt.appendTo(nil)
		d := codec.NewDec(data)
		back := decodeTable(d, specs)
		if d.End() != nil || !tablesEqual(gt, back) {
			return false
		}
		return bytes.Equal(data, back.appendTo(nil))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A checkpoint that declares no aggregate specs can never match a query
// (NewGroupTable demands at least one) and must be rejected, not decoded
// into zero-cell groups.
func TestUnmarshalRejectsEmptySpecs(t *testing.T) {
	topic := stream.NewTopic("t", []float64{1, 2, 3}, 1)
	q := NewRunning("q", stream.NewConsumer(topic), []AggSpec{{Name: "sum", Kind: Sum}},
		Processor[float64]{Process: func([]float64, *GroupTable) {}}, CostModel{})
	cp, err := q.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// name "q" (2 bytes), partitions+offset (2), pointer, rows, then specs.
	const specsAt = 6
	if cp[specsAt] != 1 {
		t.Fatalf("spec count not at byte %d of %x", specsAt, cp)
	}
	cp[specsAt] = 0
	if err := q.Restore(cp); err == nil {
		t.Error("accepted checkpoint without specs")
	}
}

func TestSpeedupMonotonic(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 16; k++ {
		s := Speedup(k)
		if s <= prev {
			t.Fatalf("Speedup(%d) = %v not increasing", k, s)
		}
		if s > float64(k) {
			t.Fatalf("Speedup(%d) = %v superlinear", k, s)
		}
		prev = s
	}
	if Speedup(0) != 1 || Speedup(-3) != 1 {
		t.Error("degenerate thread counts must give speedup 1")
	}
}

func TestBatchCostScaling(t *testing.T) {
	cm := CostModel{SecsPerRow: 0.001, FixedPerBatch: 0.05}
	one := cm.BatchCost(1000, 1)
	four := cm.BatchCost(1000, 4)
	if four >= one {
		t.Errorf("4-thread cost %v not below 1-thread %v", four, one)
	}
	if cm.BatchCost(0, 1) != 0 {
		t.Error("zero rows must cost zero")
	}
}

func TestRunningQueryLifecycle(t *testing.T) {
	records := make([]float64, 100)
	for i := range records {
		records[i] = float64(i)
	}
	topic := stream.NewTopic("t", records, 2)
	mk := func() *Running[float64] {
		return NewRunning("sumq", stream.NewConsumer(topic),
			[]AggSpec{{Name: "sum", Kind: Sum}},
			Processor[float64]{Process: func(rows []float64, gt *GroupTable) {
				for _, v := range rows {
					gt.Update("all", v)
				}
			}},
			CostModel{SecsPerRow: 0.01})
	}
	final := mk()
	for {
		rows, _ := final.ProcessBatch(64, 1)
		if rows == 0 {
			break
		}
	}
	truth := NewFinal(final.Snapshot())

	q := mk()
	q.SetFinal(&truth)
	rows, cost := q.ProcessBatch(50, 2)
	if rows != 50 {
		t.Fatalf("processed %d rows, want 50", rows)
	}
	if cost <= 0 {
		t.Fatal("non-positive cost")
	}
	if acc := q.Accuracy(); acc <= 0 || acc >= 1 {
		t.Fatalf("mid-stream accuracy %v not in (0,1)", acc)
	}
	cp, err := q.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	q2 := mk()
	q2.SetFinal(&truth)
	if err := q2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if q2.RowsProcessed() != 50 || q2.DataProgress() != 0.5 {
		t.Fatalf("restored rows=%d progress=%v", q2.RowsProcessed(), q2.DataProgress())
	}
	for !q2.Exhausted() {
		q2.ProcessBatch(64, 1)
	}
	if acc := q2.Accuracy(); math.Abs(acc-1) > 1e-12 {
		t.Fatalf("final accuracy after restore = %v", acc)
	}
	// Restoring a checkpoint from another query must fail.
	other := NewRunning("otherq", stream.NewConsumer(topic),
		[]AggSpec{{Name: "sum", Kind: Sum}},
		Processor[float64]{Process: func([]float64, *GroupTable) {}},
		CostModel{SecsPerRow: 0.01})
	if err := other.Restore(cp); err == nil {
		t.Error("restored a checkpoint from a different query")
	}
}

func TestMemoryProfileEstimate(t *testing.T) {
	p := MemoryProfile{ResidentRows: 1000, ResidentRowBytes: 100, ProjectedGroups: 10, GroupBytes: 100}
	mb := p.EstimateMB()
	want := (1000*100 + 10*100) * 1.25 / (1 << 20)
	if math.Abs(mb-want) > 1e-9 {
		t.Errorf("EstimateMB = %v, want %v", mb, want)
	}
}
