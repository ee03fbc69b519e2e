// Package stream is the data-source substrate for Rotary-AQP.
//
// The paper streams TPC-H data to the AQP system from an Apache Kafka
// cluster: "online aggregation systems process data iteratively using data
// batches, and each progressive sampling of the data is a batch and
// processes roughly the same amount of data" (§III-A, Example 1). This
// package reproduces the consumption semantics the arbiter depends on —
// partitioned topics, progressive batch delivery, explicit offsets that
// survive checkpoint/restore — without the network.
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
		parts[p] = make([]T, 0, (len(records)+nparts-1-p)/nparts)
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

// Consumer reads a topic progressively. Consumers are cheap; each AQP job
// owns one. The consumer's position is captured by Offsets for
// checkpointing and restored with Seek, mirroring Kafka consumer-group
// offset commits.
type Consumer[T any] struct {
	topic   *Topic[T]
	offsets []int
	next    int // round-robin partition pointer
	read    int
	buf     []T // NextBatch's row buffer, reused across calls
}

// NewConsumer returns a consumer positioned at the start of the topic.
func NewConsumer[T any](t *Topic[T]) *Consumer[T] {
	return &Consumer[T]{topic: t, offsets: make([]int, len(t.partitions))}
}

// NextBatch returns up to n records and reports whether any records were
// returned. A false report means the topic is exhausted.
//
// Records are drawn one at a time in strict round-robin over partitions,
// so the global consumption order is a pure function of the topic — it
// does not depend on the batch sizes a consumer happens to use. Queries
// with order-sensitive auxiliary state (Q17's running averages) rely on
// this to agree with the ground-truth pass regardless of epoch sizing.
// The returned slice is the consumer's own buffer: valid until the next
// NextBatch call, and read-only.
func (c *Consumer[T]) NextBatch(n int) ([]T, bool) {
	if n <= 0 {
		return nil, false
	}
	batch := slices.Grow(c.buf[:0], min(n, c.Remaining()))
	parts := len(c.topic.partitions)
	empty := 0
	for len(batch) < n && empty < parts {
		p := c.next % parts
		c.next++
		part := c.topic.partitions[p]
		off := c.offsets[p]
		if off >= len(part) {
			empty++
			continue
		}
		empty = 0
		batch = append(batch, part[off])
		c.offsets[p] = off + 1
	}
	c.buf = batch
	c.read += len(batch)
	if len(batch) == 0 {
		return nil, false
	}
	return batch, true
}

// Partitions reports the partition count of the consumer's topic.
func (c *Consumer[T]) Partitions() int { return len(c.topic.partitions) }

// NextBatchPartitioned returns up to n records grouped by partition:
// out[p] is the contiguous run of partition p's records drawn this call
// (nil if the partition contributed nothing). It reports whether any
// records were returned; false means the topic is exhausted.
//
// The per-partition quotas replicate NextBatch's strict round-robin draw
// exactly, so a consumer advanced with NextBatchPartitioned consumes the
// same record set per call and lands on the same ConsumerState as one
// advanced with NextBatch — checkpoints are interchangeable between the
// two access paths. The returned slices alias the topic's partitions
// (zero copy); callers must treat them as read-only.
//
// This is the parallel data path's entry point: each partition's run can
// be folded independently (partition p's record order is a pure function
// of the topic, never of batch sizing), then combined in partition-index
// order for a deterministic result.
func (c *Consumer[T]) NextBatchPartitioned(n int) ([][]T, bool) {
	if n <= 0 {
		return nil, false
	}
	parts := len(c.topic.partitions)
	take := make([]int, parts)
	taken := 0
	empty := 0
	for taken < n && empty < parts {
		p := c.next % parts
		c.next++
		part := c.topic.partitions[p]
		if c.offsets[p]+take[p] >= len(part) {
			empty++
			continue
		}
		empty = 0
		take[p]++
		taken++
	}
	if taken == 0 {
		return nil, false
	}
	out := make([][]T, parts)
	for p, k := range take {
		if k == 0 {
			continue
		}
		off := c.offsets[p]
		out[p] = c.topic.partitions[p][off : off+k : off+k]
		c.offsets[p] = off + k
	}
	c.read += taken
	return out, true
}

// Read reports the total number of records consumed so far.
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

// Offsets returns a copy of the per-partition offsets plus the round-robin
// pointer, for inclusion in job checkpoints.
func (c *Consumer[T]) Offsets() ConsumerState {
	offs := make([]int, len(c.offsets))
	copy(offs, c.offsets)
	return ConsumerState{Offsets: offs, Next: c.next, Read: c.read}
}

// Seek restores a position previously captured by Offsets.
func (c *Consumer[T]) Seek(s ConsumerState) error {
	if len(s.Offsets) != len(c.offsets) {
		return fmt.Errorf("stream: offset count %d does not match %d partitions", len(s.Offsets), len(c.offsets))
	}
	for p, off := range s.Offsets {
		if off < 0 || off > len(c.topic.partitions[p]) {
			return fmt.Errorf("stream: offset %d out of range for partition %d", off, p)
		}
	}
	copy(c.offsets, s.Offsets)
	c.next = s.Next
	c.read = s.Read
	return nil
}

// ConsumerState is a consumer position, as job checkpoints carry it.
type ConsumerState struct {
	Offsets []int
	Next    int
	Read    int
}
