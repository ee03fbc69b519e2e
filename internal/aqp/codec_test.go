package aqp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"rotary/internal/codec"
	"rotary/internal/stream"
)

// auxProcessor is a sequential-path processor with auxiliary state: a
// running total that every emitted value depends on, so a restore that
// loses or half-installs it shows up in the aggregates.
func auxProcessor() Processor[synthRow] {
	var total float64
	var seen int64
	return Processor[synthRow]{
		Process: func(rows []synthRow, gt *GroupTable) {
			for i := range rows {
				total += rows[i].V
				seen++
				v := total / float64(seen)
				gt.Update(rows[i].Group, v, 1, v, v, v)
			}
		},
		SaveAux: func(b []byte) []byte { return binary.AppendUvarint(codec.AppendFloat(b, total), uint64(seen)) },
		LoadAux: func(d *codec.Dec) func() {
			t, s := d.Float(), int64(d.Uvarint())
			return func() { total, seen = t, s }
		},
		AuxBytes: func() int64 { return 16 },
	}
}

// cellsEqual compares accumulators bit-for-bit, so NaN equals itself.
func cellsEqual(a, b cell) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Sum, b.Sum) && eq(a.SumSq, b.SumSq) && a.Count == b.Count &&
		eq(a.Min, b.Min) && eq(a.Max, b.Max)
}

func tablesEqual(a, b *GroupTable) bool {
	if len(a.specs) != len(b.specs) || len(a.groups) != len(b.groups) {
		return false
	}
	for g, cs := range a.groups {
		bs, ok := b.groups[g]
		if !ok || len(bs) != len(cs) {
			return false
		}
		for i := range cs {
			if !cellsEqual(cs[i], bs[i]) {
				return false
			}
		}
	}
	return true
}

// Restore is all-or-nothing: whatever is wrong with a checkpoint — cut
// short anywhere, a count no input could back, groups out of order, the
// wrong query, partition, spec or table count, a position no run can
// reach, bytes left over — the query keeps its consumer position, tables
// and aux state untouched and goes on to the same answer as a query that
// never saw the bad input.
func TestFailedRestoreLeavesQueryUntouched(t *testing.T) {
	topic := stream.NewTopic("t", synthRows(11, 900, 9), 4)
	other := stream.NewTopic("t", synthRows(11, 900, 9), 5)
	for path, proc := range map[string]func() Processor[synthRow]{
		"partitioned": synthProcessor, "aux": auxProcessor,
	} {
		mk := func(name string, tp *stream.Topic[synthRow], specs []AggSpec) *Running[synthRow] {
			return NewRunning(name, stream.NewConsumer(tp), specs, proc(), CostModel{SecsPerRow: 0.001})
		}
		donor := mk("q", topic, allKindSpecs())
		donor.ProcessBatch(500, 2)
		good, _ := donor.Checkpoint()

		bad := map[string][]byte{
			"empty":          {},
			"trailing byte":  append(good[:len(good):len(good)], 0),
			"huge count":     binary.AppendUvarint(nil, 0xFFFFFFFF),
			"other query":    mustCheckpoint(t, mk("other", topic, allKindSpecs())),
			"5 partitions":   mustCheckpoint(t, mk("q", other, allKindSpecs())),
			"4 specs":        mustCheckpoint(t, mk("q", topic, allKindSpecs()[:4])),
			"pointer = 4":    patched(good, 7, 4),
			"groups swapped": swapFirstGroups(t, good),
		}
		for what, data := range unreachablePositions(good, donor.consumer.Read(), topic.Len(), topic.Partitions()) {
			bad[what] = data
		}
		for cut := 1; cut < len(good); cut += 7 {
			bad[fmt.Sprintf("cut at %d", cut)] = good[:cut]
		}

		q, control := mk("q", topic, allKindSpecs()), mk("q", topic, allKindSpecs())
		q.ProcessBatch(300, 1)
		control.ProcessBatch(300, 1)
		before, _ := q.Checkpoint()
		for what, data := range bad {
			if err := q.Restore(data); err == nil {
				t.Errorf("%s: %s: restore accepted it", path, what)
				continue
			}
			if after, _ := q.Checkpoint(); !bytes.Equal(before, after) {
				t.Fatalf("%s: %s: failed restore changed the query", path, what)
			}
		}
		drain(q, 200, 2)
		drain(control, 200, 2)
		snapshotsIdentical(t, path+": after failed restores", q.Snapshot(), control.Snapshot())
		if a, b := mustCheckpoint(t, q), mustCheckpoint(t, control); !bytes.Equal(a, b) {
			t.Errorf("%s: final checkpoints differ after failed restores", path)
		}
		// And the good one still restores.
		if err := q.Restore(good); err != nil {
			t.Errorf("%s: good checkpoint rejected: %v", path, err)
		}
	}
}

func mustCheckpoint(t *testing.T, q *Running[synthRow]) []byte {
	t.Helper()
	cp, err := q.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// patched returns a copy of cp with one byte replaced.
func patched(cp []byte, at int, v byte) []byte {
	out := append([]byte(nil), cp...)
	out[at] = v
	return out
}

// swapFirstGroups exchanges the first two groups of the first table, which
// keeps every length valid and breaks only the ascending-name rule.
func swapFirstGroups(t *testing.T, cp []byte) []byte {
	t.Helper()
	// "q" (2) + 4 partitions (5) + pointer + rows (2: 500) + specs + tables.
	const table = 2 + 5 + 1 + 2 + 1 + 1
	start := table
	if n := uvarintAt(cp, &start); n < 2 {
		t.Fatalf("fixture's first table has %d groups", n)
	}
	group := func(from int) []byte {
		end := from
		end += int(uvarintAt(cp, &end)) + len(allKindSpecs())*cellBytes
		return cp[from:end]
	}
	g1 := group(start)
	g2 := group(start + len(g1))
	out := append([]byte(nil), cp[:start]...)
	out = append(append(out, g2...), g1...)
	return append(out, cp[start+len(g1)+len(g2):]...)
}

// uvarintAt reads the uvarint at b[*pos] and moves *pos past it.
func uvarintAt(b []byte, pos *int) uint64 {
	v, n := binary.Uvarint(b[*pos:])
	*pos += n
	return v
}

// withPosition returns a copy of cp with its consumer section replaced.
func withPosition(cp []byte, offsets []int, pointer, rows int) []byte {
	start := 0
	start += int(uvarintAt(cp, &start)) // the query name
	end := start
	for n := uvarintAt(cp, &end) + 2; n > 0; n-- { // the offsets, the pointer, the rows
		uvarintAt(cp, &end)
	}
	out := binary.AppendUvarint(append([]byte(nil), cp[:start]...), uint64(len(offsets)))
	for _, off := range offsets {
		out = binary.AppendUvarint(out, uint64(off))
	}
	out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(pointer)), uint64(rows))
	return append(out, cp[end:]...)
}

// unreachablePositions rewrites the consumer section of cp, a checkpoint
// taken read records into a topic of total records over parts partitions,
// into four that no run reaches: every field in range, but the offsets,
// the pointer and the records read disagree, or the count passes the end.
func unreachablePositions(cp []byte, read, total, parts int) map[string][]byte {
	offsets := func(read int) []int {
		out := make([]int, parts)
		for p := range out {
			out[p] = stream.Offset(read, p, parts)
		}
		return out
	}
	bumped := offsets(read)
	bumped[0]++
	return map[string][]byte{
		"offset bumped":         withPosition(cp, bumped, read%parts, read),
		"pointer off by one":    withPosition(cp, offsets(read), (read+1)%parts, read),
		"rows not offsets' sum": withPosition(cp, offsets(read), read%parts, read+parts),
		"rows past topic's end": withPosition(cp, offsets(total), (total+1)%parts, total+1),
	}
}

// A snapshot survives AppendSnapshot and DecodeSnapshot bit for bit —
// negative zero, infinities and NaN included — and every truncation of
// its encoding is rejected, never half-read.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := Snapshot{
		Specs: []AggSpec{{Name: "sum", Kind: Sum, Weight: 2}, {Name: "min", Kind: Min}},
		Groups: map[string][]float64{
			"b": {math.Copysign(0, -1), math.Inf(1)},
			"a": {math.NaN(), -1.5},
			"":  {1, math.Inf(-1)},
		},
	}
	enc := AppendSnapshot(nil, s)
	d := codec.NewDec(enc)
	back := DecodeSnapshot(d)
	if err := d.End(); err != nil {
		t.Fatal(err)
	}
	if again := AppendSnapshot(nil, back); !bytes.Equal(again, enc) {
		t.Fatal("decoded snapshot re-encodes to other bytes")
	}
	if fmt.Sprint(back.Specs) != fmt.Sprint(s.Specs) {
		t.Fatalf("specs %v, want %v", back.Specs, s.Specs)
	}
	for n := 0; n < len(enc); n++ {
		d := codec.NewDec(enc[:n])
		DecodeSnapshot(d)
		if d.End() == nil {
			t.Fatalf("a %d-byte prefix of the %d-byte encoding decoded cleanly", n, len(enc))
		}
	}
}
