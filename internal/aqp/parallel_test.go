package aqp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rotary/internal/codec"
	"rotary/internal/sim"
	"rotary/internal/stream"
)

// allKindSpecs covers every aggregate kind the engine supports.
func allKindSpecs() []AggSpec {
	return []AggSpec{
		{Name: "s", Kind: Sum}, {Name: "c", Kind: Count}, {Name: "a", Kind: Avg},
		{Name: "mn", Kind: Min}, {Name: "mx", Kind: Max},
	}
}

// synthRow is a synthetic fact row for the parallel-path tests.
type synthRow struct {
	Group string
	V     float64
}

func synthRows(seed uint64, n, groups int) []synthRow {
	r := sim.NewRand(seed)
	rows := make([]synthRow, n)
	for i := range rows {
		rows[i] = synthRow{
			Group: fmt.Sprintf("g%d", r.IntN(groups)),
			V:     r.Range(-1000, 1000),
		}
	}
	return rows
}

func synthProcessor() Processor[synthRow] {
	return Processor[synthRow]{Process: func(rows []synthRow, gt *GroupTable) {
		for i := range rows {
			v := rows[i].V
			gt.Update(rows[i].Group, v, 1, v, v, v)
		}
	}}
}

func drain(q *Running[synthRow], batch, width int) {
	for {
		rows, _ := q.ProcessBatch(batch, width)
		if rows == 0 {
			return
		}
	}
}

// snapshotsIdentical demands bit-exact equality — no tolerance.
func snapshotsIdentical(t *testing.T, label string, a, b Snapshot) {
	t.Helper()
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: %d groups vs %d", label, len(a.Groups), len(b.Groups))
	}
	for g, av := range a.Groups {
		bv, ok := b.Groups[g]
		if !ok {
			t.Fatalf("%s: group %q missing", label, g)
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				t.Fatalf("%s: group %q col %d: %v vs %v (bits differ)", label, g, i, av[i], bv[i])
			}
		}
	}
}

// The headline metamorphic property: for every aggregate kind, every
// partition split, and every worker width — including widths above the
// partition count — the parallel path produces bit-identical snapshots
// and confidence intervals, at any epoch sizing.
func TestParallelWidthsBitIdentical(t *testing.T) {
	rows := synthRows(11, 4000, 7)
	for _, parts := range []int{1, 2, 3, 5, 8} {
		topic := stream.NewTopic("t", rows, parts)
		mk := func() *Running[synthRow] {
			return NewRunning("wq", stream.NewConsumer(topic), allKindSpecs(),
				synthProcessor(), CostModel{SecsPerRow: 0.001})
		}
		ref := mk()
		drain(ref, 500, 1)
		refSnap := ref.Snapshot()
		for _, cfg := range []struct{ batch, width int }{
			{500, 2}, {500, 4}, {500, 8}, {500, parts + 5}, // degenerate width > partitions
			{137, 4}, {4000, 4}, // epoch sizing must not matter either
		} {
			q := mk()
			drain(q, cfg.batch, cfg.width)
			label := fmt.Sprintf("parts=%d batch=%d width=%d", parts, cfg.batch, cfg.width)
			snapshotsIdentical(t, label, refSnap, q.Snapshot())
			for g := range refSnap.Groups {
				for col := range refSnap.Specs {
					rlo, rhi, rok := ref.ConfidenceInterval(g, col, 1.96)
					qlo, qhi, qok := q.ConfidenceInterval(g, col, 1.96)
					if rok != qok || math.Float64bits(rlo) != math.Float64bits(qlo) ||
						math.Float64bits(rhi) != math.Float64bits(qhi) {
						t.Fatalf("%s: CI(%q,%d) = (%v,%v,%v) vs (%v,%v,%v)",
							label, g, col, qlo, qhi, qok, rlo, rhi, rok)
					}
				}
			}
		}
	}
}

// Merge must reproduce the cell a single table would hold: exactly for
// the order-free accumulators (Count/Min/Max), and to float tolerance
// for the summed ones (their addition order differs from the interleaved
// fold, which is why the parallel path fixes the partition order
// instead).
func TestMergeReproducesDirectFold(t *testing.T) {
	check := func(seed uint64, k uint8) bool {
		rows := synthRows(seed, 600, 5)
		nparts := int(k)%6 + 1
		direct := NewGroupTable(allKindSpecs())
		partials := make([]*GroupTable, nparts)
		for p := range partials {
			partials[p] = NewGroupTable(allKindSpecs())
		}
		for i := range rows {
			v := rows[i].V
			direct.Update(rows[i].Group, v, 1, v, v, v)
			partials[i%nparts].Update(rows[i].Group, v, 1, v, v, v)
		}
		merged := NewGroupTable(allKindSpecs())
		for _, p := range partials {
			merged.Merge(p)
		}
		a, b := direct.Snapshot(), merged.Snapshot()
		if len(a.Groups) != len(b.Groups) {
			return false
		}
		for g, av := range a.Groups {
			bv := b.Groups[g]
			for i, spec := range a.Specs {
				switch spec.Kind {
				case Count, Min, Max:
					if av[i] != bv[i] {
						return false
					}
				default:
					if math.Abs(av[i]-bv[i]) > 1e-9*math.Max(1, math.Abs(av[i])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeDisjointCopiesCells(t *testing.T) {
	specs := []AggSpec{{Name: "s", Kind: Sum}}
	src := NewGroupTable(specs)
	src.Update("only-in-src", 5)
	dst := NewGroupTable(specs)
	dst.Merge(src)
	src.Update("only-in-src", 7) // must not leak into dst through aliasing
	if got := dst.Snapshot().Groups["only-in-src"][0]; got != 5 {
		t.Fatalf("merged cell aliased its source: %v, want 5", got)
	}
	empty := NewGroupTable(specs)
	dst.Merge(empty)
	if got := dst.Snapshot().Groups["only-in-src"][0]; got != 5 {
		t.Fatalf("merging an empty table changed a cell: %v", got)
	}
}

func TestMergeSpecMismatchPanics(t *testing.T) {
	for _, other := range []*GroupTable{
		NewGroupTable([]AggSpec{{Name: "a", Kind: Sum}, {Name: "b", Kind: Sum}}),
		NewGroupTable([]AggSpec{{Name: "a", Kind: Max}}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("merge with mismatched specs did not panic")
				}
			}()
			NewGroupTable([]AggSpec{{Name: "a", Kind: Sum}}).Merge(other)
		}()
	}
}

// A parallel query checkpointed mid-stream must restore to the exact
// per-partition accumulators: draining the original and the restored
// copy yields bit-identical snapshots.
func TestParallelCheckpointRoundTrip(t *testing.T) {
	rows := synthRows(23, 3000, 6)
	topic := stream.NewTopic("t", rows, 6)
	mk := func() *Running[synthRow] {
		return NewRunning("cpq", stream.NewConsumer(topic), allKindSpecs(),
			synthProcessor(), CostModel{SecsPerRow: 0.001})
	}
	q1 := mk()
	q1.ProcessBatch(1100, 4)
	cp, err := q1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	q2 := mk()
	if err := q2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	snapshotsIdentical(t, "restored mid-stream", q1.Snapshot(), q2.Snapshot())
	if q1.RowsProcessed() != q2.RowsProcessed() || q1.DataProgress() != q2.DataProgress() {
		t.Fatalf("restored position: rows %d/%d progress %v/%v",
			q1.RowsProcessed(), q2.RowsProcessed(), q1.DataProgress(), q2.DataProgress())
	}
	drain(q1, 700, 8)
	drain(q2, 700, 2) // different width and epoch sizing after restore
	snapshotsIdentical(t, "drained after restore", q1.Snapshot(), q2.Snapshot())

	// A sequential-path checkpoint must not restore into a parallel query,
	// nor the other way round.
	seq := NewRunning("cpq", stream.NewConsumer(topic), allKindSpecs(), withNoAux(synthProcessor()), CostModel{SecsPerRow: 0.001})
	seq.ProcessBatch(1100, 1)
	seqCP, err := seq.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := mk().Restore(seqCP); err == nil {
		t.Error("parallel query restored a checkpoint without partials")
	}
	if err := seq.Restore(cp); err == nil {
		t.Error("sequential query restored a per-partition checkpoint")
	}
}

// withNoAux gives p empty auxiliary-state hooks, which put it on the
// sequential path.
func withNoAux(p Processor[synthRow]) Processor[synthRow] {
	p.SaveAux = func(b []byte) []byte { return b }
	p.LoadAux = func(*codec.Dec) func() { return func() {} }
	return p
}

// Processors with auxiliary state are order-sensitive and must stay on
// the single-goroutine interleaved path; re-entrant ones without aux
// state get the partitioned path.
func TestPathSelection(t *testing.T) {
	topic := stream.NewTopic("t", synthRows(1, 100, 3), 4)
	stateless := NewRunning("a", stream.NewConsumer(topic), allKindSpecs(),
		synthProcessor(), CostModel{})
	if stateless.partials == nil || stateless.gt != nil {
		t.Error("stateless processor not on the parallel path")
	}
	aux := NewRunning("b", stream.NewConsumer(topic), allKindSpecs(), withNoAux(synthProcessor()), CostModel{})
	if aux.partials != nil || aux.gt == nil {
		t.Error("aux-state processor not on the sequential path")
	}
}

// Cells hold non-finite values legitimately — the ±Inf extrema sentinels
// of a group whose column has seen no finite value, a NaN, a SumSq that
// overflowed — and every one must survive a checkpoint bit for bit.
func TestCheckpointPreservesNonFiniteSentinels(t *testing.T) {
	specs := []AggSpec{{Name: "s", Kind: Sum}, {Name: "m", Kind: Min}}
	gt := NewGroupTable(specs)
	gt.Update("sentinels", math.NaN(), math.NaN()) // group exists, no finite values
	gt.Update("overflow", 1e200, math.Inf(-1))     // SumSq = +Inf, Min = -Inf
	gt.Update("overflow", math.Inf(1), 0)
	gt.Update("overflow", math.Inf(-1), 0) // Sum = +Inf + -Inf = NaN
	if c := gt.groups["overflow"][0]; !math.IsInf(c.SumSq, 1) || !math.IsNaN(c.Sum) {
		t.Fatalf("fixture lost its non-finite accumulators: %+v", c)
	}
	d := codec.NewDec(gt.appendTo(nil))
	back := decodeTable(d, specs)
	if err := d.End(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !tablesEqual(gt, back) {
		t.Fatalf("round trip changed cells:\n%+v\n%+v", gt.groups, back.groups)
	}
	// The restored sentinels must still lose to any finite update.
	back.Update("sentinels", 4, 4)
	vals := back.Snapshot().Groups["sentinels"]
	if vals[0] != 4 || vals[1] != 4 {
		t.Fatalf("post-restore update got %v, want [4 4]", vals)
	}
}
