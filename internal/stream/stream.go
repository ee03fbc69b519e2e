// Package stream is the data-source substrate for Rotary-AQP.
//
// The paper streams TPC-H data to the AQP system from an Apache Kafka
// cluster: "online aggregation systems process data iteratively using data
// batches, and each progressive sampling of the data is a batch and
// processes roughly the same amount of data" (§III-A, Example 1). This
// package reproduces the consumption semantics the arbiter depends on —
// partitioned topics, progressive batch delivery, a consumer position
// (the records read) that survives checkpoint/restore — without the
// network.
package stream

import (
	"fmt"
	"slices"

	"rotary/internal/sim"
)

// Topic holds the records of one logical stream, split across partitions.
// Records are delivered batch-by-batch as a progressive sample of the
// whole dataset; with Shuffle, delivery order is a seeded permutation so
// each batch is an (approximately) uniform sample, which is what makes the
// running aggregates converge toward the final answer.
type Topic[T any] struct {
	name       string
	partitions [][]T
	total      int
}

// NewTopic builds a topic from records, split round-robin into nparts
// partitions. nparts < 1 is treated as 1.
func NewTopic[T any](name string, records []T, nparts int) *Topic[T] {
	return newTopic(name, records, nil, nparts)
}

// NewShuffledTopic is NewTopic after a seeded permutation of records, so
// that batches are uniform progressive samples. The permutation is drawn
// over record indexes, so each record is copied once, straight into its
// partition; the input slice is not modified.
func NewShuffledTopic[T any](name string, records []T, nparts int, seed uint64) *Topic[T] {
	perm := make([]int32, len(records))
	for i := range perm {
		perm[i] = int32(i)
	}
	sim.Shuffle(sim.NewRand(seed), perm)
	return newTopic(name, records, perm, nparts)
}

// newTopic splits records, taken in perm's order (nil: their own),
// round-robin into nparts partitions.
func newTopic[T any](name string, records []T, perm []int32, nparts int) *Topic[T] {
	if nparts < 1 {
		nparts = 1
	}
	parts := make([][]T, nparts)
	for p := range parts {
		parts[p] = make([]T, 0, Offset(len(records), p, nparts))
	}
	for i := range records {
		j := i
		if perm != nil {
			j = int(perm[i])
		}
		p := i % nparts
		parts[p] = append(parts[p], records[j])
	}
	return &Topic[T]{name: name, partitions: parts, total: len(records)}
}

// Name reports the topic name.
func (t *Topic[T]) Name() string { return t.name }

// Len reports the total number of records across partitions.
func (t *Topic[T]) Len() int { return t.total }

// Partitions reports the partition count.
func (t *Topic[T]) Partitions() int { return len(t.partitions) }

// Offset reports how many of partition p's records lie among the first
// read records of a topic with parts partitions. newTopic deals record i
// to partition i mod parts at offset i div parts, so this is the count
// of i < read with i ≡ p (mod parts).
func Offset(read, p, parts int) int { return (read + parts - 1 - p) / parts }

// Consumer reads a topic progressively, in record order: record i of the
// topic is the i-th record drawn, which is a strict round-robin over the
// partitions. Its whole position is one integer, the number of records
// read; every partition's offset (Offset) and the round-robin pointer
// (read mod partitions) are derived from it. Consumers are cheap; each
// AQP job owns one. Read and Seek carry the position through job
// checkpoints, mirroring Kafka consumer-group offset commits.
type Consumer[T any] struct {
	topic *Topic[T]
	read  int
	buf   []T // NextBatch's row buffer, reused across calls
}

// NewConsumer returns a consumer positioned at the start of the topic.
func NewConsumer[T any](t *Topic[T]) *Consumer[T] {
	return &Consumer[T]{topic: t}
}

// NextBatch returns the next min(n, Remaining()) records and reports
// whether any were returned. A false report means the topic is exhausted
// (or n <= 0).
//
// The consumption order is a pure function of the topic — it does not
// depend on the batch sizes a consumer happens to use. Queries with
// order-sensitive auxiliary state (Q17's running averages) rely on this to
// agree with the ground-truth pass regardless of epoch sizing. The
// returned slice is the consumer's own buffer: valid until the next
// NextBatch call, and read-only.
func (c *Consumer[T]) NextBatch(n int) ([]T, bool) {
	k := min(n, c.Remaining())
	if k <= 0 {
		return nil, false
	}
	parts := c.topic.partitions
	batch := slices.Grow(c.buf[:0], k)
	// Record i is parts[i%P][i/P]; step (p, off) instead of dividing.
	p, off := c.read%len(parts), c.read/len(parts)
	for range k {
		batch = append(batch, parts[p][off])
		if p++; p == len(parts) {
			p, off = 0, off+1
		}
	}
	c.buf = batch
	c.read += k
	return batch, true
}

// Partitions reports the partition count of the consumer's topic.
func (c *Consumer[T]) Partitions() int { return len(c.topic.partitions) }

// NextBatchPartitioned draws the same min(n, Remaining()) records as
// NextBatch, grouped by partition: out[p] is the contiguous run of
// partition p's records drawn this call (nil if the partition contributed
// nothing). It reports whether any records were returned; false means the
// topic is exhausted (or n <= 0). The runs are the offset windows
// [Offset(read, p, P), Offset(read+k, p, P)), found in O(P), so both
// access paths advance the one read count alike and checkpoints are
// interchangeable between them. The returned slices alias the topic's
// partitions (zero copy); callers must treat them as read-only.
//
// This is the parallel data path's entry point: each partition's run can
// be folded independently (partition p's record order is a pure function
// of the topic, never of batch sizing), then combined in partition-index
// order for a deterministic result.
func (c *Consumer[T]) NextBatchPartitioned(n int) ([][]T, bool) {
	k := min(n, c.Remaining())
	if k <= 0 {
		return nil, false
	}
	parts := len(c.topic.partitions)
	out := make([][]T, parts)
	for p, part := range c.topic.partitions {
		lo, hi := Offset(c.read, p, parts), Offset(c.read+k, p, parts)
		if lo < hi {
			out[p] = part[lo:hi:hi]
		}
	}
	c.read += k
	return out, true
}

// Read reports the total number of records consumed so far: the
// consumer's position.
func (c *Consumer[T]) Read() int { return c.read }

// Remaining reports how many records have not been consumed yet.
func (c *Consumer[T]) Remaining() int { return c.topic.total - c.read }

// Progress reports the consumed fraction of the topic in [0, 1]. An empty
// topic reports 1.
func (c *Consumer[T]) Progress() float64 {
	if c.topic.total == 0 {
		return 1
	}
	return float64(c.read) / float64(c.topic.total)
}

// Seek restores a position previously reported by Read: the consumer
// resumes after the topic's first read records.
func (c *Consumer[T]) Seek(read int) error {
	if read < 0 || read > c.topic.total {
		return fmt.Errorf("stream: position %d outside a %d-record topic", read, c.topic.total)
	}
	c.read = read
	return nil
}
