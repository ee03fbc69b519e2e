package stream

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rotary/internal/sim"
)

func intRecords(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestConsumerDrainsEverythingOnce(t *testing.T) {
	topic := NewTopic("t", intRecords(1000), 4)
	c := NewConsumer(topic)
	seen := make(map[int]bool)
	for {
		batch, ok := c.NextBatch(77)
		if !ok {
			break
		}
		for _, v := range batch {
			if seen[v] {
				t.Fatalf("record %d delivered twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("delivered %d of 1000 records", len(seen))
	}
	if c.Progress() != 1 || c.Remaining() != 0 {
		t.Fatalf("progress=%v remaining=%d after drain", c.Progress(), c.Remaining())
	}
}

// Consumption order must not depend on the batch sizes used — queries
// with order-sensitive state rely on this to agree with the ground-truth
// pass.
func TestOrderIsBatchSizeInvariant(t *testing.T) {
	topic := NewShuffledTopic("t", intRecords(500), 4, 9)
	drain := func(sizes []int) []int {
		c := NewConsumer(topic)
		var out []int
		i := 0
		for {
			n := sizes[i%len(sizes)]
			i++
			batch, ok := c.NextBatch(n)
			if !ok {
				break
			}
			out = append(out, batch...)
		}
		return out
	}
	a := drain([]int{1})
	b := drain([]int{7, 13, 200})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestShuffledTopicIsSeededPermutation(t *testing.T) {
	a := NewShuffledTopic("t", intRecords(200), 3, 5)
	b := NewShuffledTopic("t", intRecords(200), 3, 5)
	ca, cb := NewConsumer(a), NewConsumer(b)
	ba, _ := ca.NextBatch(200)
	bb, _ := cb.NextBatch(200)
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatal("same seed produced different shuffles")
		}
	}
	c := NewShuffledTopic("t", intRecords(200), 3, 6)
	cc := NewConsumer(c)
	bc, _ := cc.NextBatch(200)
	same := 0
	for i := range ba {
		if ba[i] == bc[i] {
			same++
		}
	}
	if same == 200 {
		t.Fatal("different seeds produced identical shuffles")
	}
}

// The index-permutation build must lay out exactly the topic the record
// shuffle did: copy the records, shuffle the copy, split it round-robin.
func TestShuffledTopicMatchesCopyShuffleSplit(t *testing.T) {
	for _, size := range []int{0, 1, 5, 1000, 12345} {
		for _, nparts := range []int{1, 3, 4, 64} {
			for _, seed := range []uint64{0, 7, 0x11} {
				records := intRecords(size)
				shuffled := make([]int, size)
				copy(shuffled, records)
				sim.Shuffle(sim.NewRand(seed), shuffled)
				want := NewTopic("t", shuffled, nparts)
				got := NewShuffledTopic("t", records, nparts, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d, %d partitions, seed %d: topic differs from copy-shuffle-split", size, nparts, seed)
				}
				if !reflect.DeepEqual(records, intRecords(size)) {
					t.Fatalf("size %d: input records modified", size)
				}
			}
		}
	}
}

func TestOffsetsSeekRoundTrip(t *testing.T) {
	topic := NewTopic("t", intRecords(300), 4)
	c1 := NewConsumer(topic)
	c1.NextBatch(113)

	c2 := NewConsumer(topic)
	if err := c2.Seek(c1.Read()); err != nil {
		t.Fatal(err)
	}
	if c2.Read() != c1.Read() {
		t.Fatalf("read count %d vs %d after seek", c2.Read(), c1.Read())
	}
	r1, _ := c1.NextBatch(300)
	r2, _ := c2.NextBatch(300)
	if len(r1) != len(r2) {
		t.Fatalf("remaining lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("post-seek order diverges at %d", i)
		}
	}
}

// A position is a record count in [0, Len]. (A checkpoint with the wrong
// partition count is the codec's to reject: aqp's "5 partitions" case.)
func TestSeekRejectsBadState(t *testing.T) {
	topic := NewTopic("t", intRecords(10), 2)
	c := NewConsumer(topic)
	c.NextBatch(3)
	longer := NewConsumer(NewTopic("t", intRecords(30), 2))
	longer.NextBatch(20)
	for what, read := range map[string]int{
		"a longer topic's position": longer.Read(),
		"out-of-range count":        99,
		"negative count":            -1,
	} {
		if err := c.Seek(read); err == nil {
			t.Errorf("seek accepted %s (%d)", what, read)
		}
		if c.Read() != 3 {
			t.Fatalf("rejected seek to %d moved the consumer to %d", read, c.Read())
		}
	}
	for _, read := range []int{0, 10} {
		if err := c.Seek(read); err != nil || c.Read() != read {
			t.Errorf("seek to %d: %v, read %d", read, err, c.Read())
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		size := int(n)%200 + 1
		topic := NewShuffledTopic("t", intRecords(size), 3, seed)
		c := NewConsumer(topic)
		prev := 0.0
		for {
			_, ok := c.NextBatch(7)
			p := c.Progress()
			if p < prev || p > 1 {
				return false
			}
			prev = p
			if !ok {
				break
			}
		}
		return prev == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndZeroBatch(t *testing.T) {
	topic := NewTopic[int]("empty", nil, 4)
	c := NewConsumer(topic)
	if _, ok := c.NextBatch(10); ok {
		t.Error("empty topic returned a batch")
	}
	if c.Progress() != 1 {
		t.Error("empty topic progress should be 1")
	}
	topic2 := NewTopic("t", intRecords(5), 1)
	c2 := NewConsumer(topic2)
	if _, ok := c2.NextBatch(0); ok {
		t.Error("zero-size batch returned records")
	}
}

// The partitioned draw must consume exactly the record set the
// interleaved draw would, call by call, and land on the identical
// position, which is all a checkpoint records — checkpoints are
// interchangeable between the two data paths.
func TestNextBatchPartitionedMatchesInterleaved(t *testing.T) {
	check := func(seed uint64, nparts uint8) bool {
		parts := int(nparts)%7 + 1
		topic := NewTopic("t", intRecords(500), parts)
		seq := NewConsumer(topic)
		par := NewConsumer(topic)
		sizes := []int{1, 7, 77, 13, 500, 3}
		for i := 0; ; i++ {
			n := sizes[i%len(sizes)]
			batch, okSeq := seq.NextBatch(n)
			runs, okPar := par.NextBatchPartitioned(n)
			if okSeq != okPar {
				return false
			}
			if !okSeq {
				break
			}
			want := make(map[int]bool, len(batch))
			for _, v := range batch {
				want[v] = true
			}
			got := 0
			for _, run := range runs {
				for _, v := range run {
					if !want[v] {
						return false
					}
					got++
				}
			}
			if got != len(batch) || seq.Read() != par.Read() {
				return false
			}
		}
		return seq.Read() == par.Read() && par.Remaining() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Partition runs are contiguous slices of the partition in its own
// order: concatenating the runs across calls replays each partition
// exactly, at any batch sizing.
func TestNextBatchPartitionedPreservesPartitionOrder(t *testing.T) {
	const parts = 5
	topic := NewTopic("t", intRecords(403), parts)
	c := NewConsumer(topic)
	replay := make([][]int, parts)
	for {
		runs, ok := c.NextBatchPartitioned(41)
		if !ok {
			break
		}
		if len(runs) != parts {
			t.Fatalf("got %d runs for %d partitions", len(runs), parts)
		}
		for p, run := range runs {
			replay[p] = append(replay[p], run...)
		}
	}
	for p := 0; p < parts; p++ {
		want := 0
		for _, v := range replay[p] {
			// NewTopic splits round-robin: partition p holds p, p+parts, …
			if v != p+want*parts {
				t.Fatalf("partition %d replay[%d] = %d, want %d", p, want, v, p+want*parts)
			}
			want++
		}
		if len(replay[p]) != len(topic.partitions[p]) {
			t.Fatalf("partition %d replayed %d of %d records", p, len(replay[p]), len(topic.partitions[p]))
		}
	}
}

// A consumer checkpointed mid-stream on the partitioned path resumes on
// either path from the same state.
func TestNextBatchPartitionedSeekRoundTrip(t *testing.T) {
	topic := NewTopic("t", intRecords(300), 4)
	c1 := NewConsumer(topic)
	c1.NextBatchPartitioned(113)

	c2 := NewConsumer(topic)
	if err := c2.Seek(c1.Read()); err != nil {
		t.Fatal(err)
	}
	r1, _ := c1.NextBatch(300)
	r2, _ := c2.NextBatch(300)
	if len(r1) != len(r2) {
		t.Fatalf("post-seek drains differ: %d vs %d records", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("post-seek record %d: %d vs %d", i, r1[i], r2[i])
		}
	}
}

// Degenerate draws: n <= 0 and exhausted topics return ok == false.
func TestNextBatchPartitionedDegenerate(t *testing.T) {
	topic := NewTopic("t", intRecords(10), 3)
	c := NewConsumer(topic)
	if _, ok := c.NextBatchPartitioned(0); ok {
		t.Error("n=0 returned records")
	}
	if _, ok := c.NextBatchPartitioned(-1); ok {
		t.Error("n<0 returned records")
	}
	c.NextBatchPartitioned(100)
	if _, ok := c.NextBatchPartitioned(1); ok {
		t.Error("exhausted topic returned records")
	}
	empty := NewConsumer(NewTopic("e", intRecords(0), 2))
	if _, ok := empty.NextBatchPartitioned(5); ok {
		t.Error("empty topic returned records")
	}
}

// refConsumer is a reference model of the consumer's draw order: a
// pointer walks the partitions one record at a time, skipping exhausted
// ones, and each partition keeps its own offset.
type refConsumer struct {
	parts   [][]int
	offsets []int
	next    int // round-robin partition pointer
	read    int
}

func newRefConsumer(t *Topic[int]) *refConsumer {
	return &refConsumer{parts: t.partitions, offsets: make([]int, len(t.partitions))}
}

// draw takes up to n records and returns them in draw order and grouped
// by the partition each came from.
func (c *refConsumer) draw(n int) (records []int, runs [][]int) {
	runs = make([][]int, len(c.parts))
	for empty := 0; len(records) < n && empty < len(c.parts); {
		p := c.next % len(c.parts)
		c.next++
		if c.offsets[p] >= len(c.parts[p]) {
			empty++
			continue
		}
		empty = 0
		v := c.parts[p][c.offsets[p]]
		c.offsets[p]++
		records = append(records, v)
		runs[p] = append(runs[p], v)
	}
	c.read += len(records)
	return records, runs
}

// The closed-form consumer against the per-row reference, over random
// topics and a random mix of both draws and re-seeks: every call returns
// the reference's records (each partition's run in partition order), and
// the reference's offsets and pointer stay the functions of the read
// count that the checkpoint codec writes.
func TestConsumerMatchesRoundRobinReference(t *testing.T) {
	r := sim.NewRand(46)
	for trial := 0; trial < 400; trial++ {
		size, parts := r.IntN(601), 1+r.IntN(8)
		topic := NewShuffledTopic("t", intRecords(size), parts, uint64(trial))
		c, ref := NewConsumer(topic), newRefConsumer(topic)
		sizes := []int{-3, -1, 0, 1, parts, 1 + r.IntN(size/3+1), size, size + 7}
		for call, tail := 0, 0; tail < 3; call++ {
			if ref.read == size {
				tail++
			}
			n := sizes[r.IntN(len(sizes))]
			switch op := r.IntN(5); {
			case op < 2:
				want, _ := ref.draw(n)
				got, ok := c.NextBatch(n)
				if ok != (len(want) > 0) || !slices.Equal(got, want) {
					t.Fatalf("trial %d (%d records, %d partitions) call %d: NextBatch(%d) = %v %v, reference %v",
						trial, size, parts, call, n, got, ok, want)
				}
			case op < 4:
				want, wantRuns := ref.draw(n)
				runs, ok := c.NextBatchPartitioned(n)
				if ok != (len(want) > 0) {
					t.Fatalf("trial %d call %d: NextBatchPartitioned(%d) ok=%v, reference drew %d", trial, call, n, ok, len(want))
				}
				for p := range wantRuns {
					if ok && !slices.Equal(runs[p], wantRuns[p]) {
						t.Fatalf("trial %d (%d records, %d partitions) call %d: NextBatchPartitioned(%d) partition %d = %v, reference %v",
							trial, size, parts, call, n, p, runs[p], wantRuns[p])
					}
				}
			default:
				resumed := NewConsumer(topic)
				if err := resumed.Seek(c.Read()); err != nil {
					t.Fatalf("trial %d call %d: Seek(%d): %v", trial, call, c.Read(), err)
				}
				c = resumed
			}
			if c.Read() != ref.read {
				t.Fatalf("trial %d call %d: read %d, reference %d", trial, call, c.Read(), ref.read)
			}
			if ref.next%parts != ref.read%parts {
				t.Fatalf("trial %d call %d: reference pointer %d, read %d over %d partitions", trial, call, ref.next, ref.read, parts)
			}
			for p, off := range ref.offsets {
				if want := Offset(ref.read, p, parts); off != want {
					t.Fatalf("trial %d call %d: reference partition %d offset %d, closed form %d", trial, call, p, off, want)
				}
			}
		}
	}
}
