package aqp

import (
	"math"

	"rotary/internal/codec"
	"rotary/internal/stream"
)

// Speedup models the sublinear scaling of a query over hardware threads.
// Batch cost at t threads is the single-thread cost divided by Speedup(t);
// the exponent reflects the diminishing parallel efficiency the paper's
// testbed exhibits (shared scans, aggregation merge).
func Speedup(threads int) float64 {
	if threads <= 1 {
		return 1
	}
	return math.Pow(float64(threads), 0.85)
}

// CostModel charges virtual seconds for batch processing. Heavier TPC-H
// queries (more joins, more per-row state) carry larger SecsPerRow, which
// is what makes the light/medium/heavy classes of Table I differ in
// runtime as well as memory.
type CostModel struct {
	// SecsPerRow is the single-thread virtual processing cost per fact row.
	SecsPerRow float64
	// FixedPerBatch is a per-batch overhead (scheduling, result merge).
	FixedPerBatch float64
}

// BatchCost reports the virtual seconds to process rows fact rows with the
// given thread allocation.
func (c CostModel) BatchCost(rows, threads int) float64 {
	if rows <= 0 {
		return 0
	}
	return (float64(rows)*c.SecsPerRow + c.FixedPerBatch) / Speedup(threads)
}

// Processor is the per-query streaming program: a fold over fact-row
// batches into a GroupTable, plus optional hooks to persist auxiliary
// per-key state (the Q17/Q18/Q21-style maps) across checkpoints.
//
// A stateless processor (no SaveAux/LoadAux) runs on the parallel data
// path: Process is then invoked concurrently from multiple goroutines,
// each call with a private GroupTable over a disjoint run of rows. Such
// a Process must be re-entrant — it may read shared immutable structures
// (dimension indexes) but must write nothing outside the GroupTable it
// was handed. Processors with auxiliary state are inherently
// order-sensitive and stay on the single-goroutine interleaved path
// automatically.
type Processor[T any] struct {
	// Process folds a batch into the running aggregates.
	Process func(rows []T, gt *GroupTable)
	// SaveAux/LoadAux serialize auxiliary state. Nil means stateless.
	// SaveAux appends the state to the checkpoint buffer, map keys in
	// ascending order so equal state gives equal bytes. LoadAux decodes
	// what SaveAux wrote into fresh state and returns the function that
	// installs it; it must not touch the live state itself, because the
	// caller installs nothing unless the whole checkpoint decoded cleanly
	// (a decode failure is latched in d).
	SaveAux func(b []byte) []byte
	LoadAux func(d *codec.Dec) (commit func())
	// AuxBytes reports the auxiliary state's current footprint. Nil means
	// zero.
	AuxBytes func() int64
}

// parallelizable reports whether the processor may run on the
// partitioned data path.
func (p Processor[T]) parallelizable() bool {
	return p.SaveAux == nil && p.LoadAux == nil
}

// OnlineQuery is the engine's view of one progressive query, independent
// of its fact-row type. Rotary-AQP jobs wrap this interface.
type OnlineQuery interface {
	// Name is the query identifier (e.g. "q5").
	Name() string
	// ProcessBatch pulls up to batchRows fact rows, folds them into the
	// running aggregates, and returns the rows consumed plus the virtual-
	// second cost under the given thread allocation. rows == 0 means the
	// stream is exhausted.
	ProcessBatch(batchRows, threads int) (rows int, cost float64)
	// EpochCost prices the next batches ProcessBatch calls without running
	// them and without changing state: the sum, in call order, of the costs
	// those calls would return, so the two agree bit for bit.
	EpochCost(batchRows, batches, threads int) float64
	// Exhausted reports whether the whole dataset has been processed.
	Exhausted() bool
	// Snapshot returns the current intermediate aggregates.
	Snapshot() Snapshot
	// Accuracy returns the paper's αc/αf accuracy against the final
	// answer, or 0 if no ground truth is attached.
	Accuracy() float64
	// AccuracyOf is Accuracy of a snapshot the caller already took.
	AccuracyOf(Snapshot) float64
	// DataProgress reports the fraction of the dataset consumed.
	DataProgress() float64
	// RowsProcessed reports the total fact rows consumed.
	RowsProcessed() int64
	// StateMemMB reports the current footprint of the running state
	// (aggregates + auxiliary maps) in MB.
	StateMemMB() float64
	// ConfidenceInterval reports the §III-B optional error bound of one
	// aggregate cell at confidence z given the current progressive sample.
	ConfidenceInterval(group string, col int, z float64) (lo, hi float64, ok bool)
	// Checkpoint serializes the complete job state (stream position,
	// aggregates, auxiliary state).
	Checkpoint() ([]byte, error)
	// Restore replaces the job state with a checkpoint taken from an
	// identically-constructed query.
	Restore([]byte) error
}

// Running is the concrete OnlineQuery over fact-row type T.
//
// Stateless queries hold one partial GroupTable per stream partition and
// fold each partition's rows independently (the parallel data path); the
// aggregate view merges partials in partition-index order, so snapshots
// are bit-identical at every worker width and epoch sizing. Queries with
// auxiliary state keep the single interleaved GroupTable.
type Running[T any] struct {
	name     string
	consumer *stream.Consumer[T]
	specs    []AggSpec
	gt       *GroupTable   // interleaved path state; nil on the parallel path
	partials []*GroupTable // parallel path state, one per stream partition
	merged   *GroupTable   // memoized merge of partials, dropped each epoch
	proc     Processor[T]
	cost     CostModel
	final    *Final
	ckptLen  int // length of the previous checkpoint, sizes the next buffer
}

// NewRunning assembles an online query from its parts. The consumer must
// be exclusive to this query.
func NewRunning[T any](name string, consumer *stream.Consumer[T], specs []AggSpec, proc Processor[T], cost CostModel) *Running[T] {
	if proc.Process == nil {
		panic("aqp: Processor.Process must be set")
	}
	r := &Running[T]{
		name:     name,
		consumer: consumer,
		specs:    append([]AggSpec(nil), specs...),
		proc:     proc,
		cost:     cost,
	}
	if proc.parallelizable() {
		r.partials = make([]*GroupTable, consumer.Partitions())
		for p := range r.partials {
			r.partials[p] = NewGroupTable(specs)
		}
	} else {
		r.gt = NewGroupTable(specs)
	}
	return r
}

// table returns the query's aggregate view: the interleaved table on the
// sequential path, or the partials merged in partition-index order on the
// parallel path (memoized until the next batch).
func (r *Running[T]) table() *GroupTable {
	if r.partials == nil {
		return r.gt
	}
	if r.merged == nil {
		m := NewGroupTable(r.specs)
		for _, p := range r.partials {
			m.Merge(p)
		}
		r.merged = m
	}
	return r.merged
}

// SetFinal attaches the ground-truth final answer used by Accuracy. f is
// only read, so every instance of a query may share one (tpch.Catalog
// prepares one per query).
func (r *Running[T]) SetFinal(f *Final) { r.final = f }

// Final returns the final answer SetFinal attached (nil before).
func (r *Running[T]) Final() *Final { return r.final }

// Name implements OnlineQuery.
func (r *Running[T]) Name() string { return r.name }

// ProcessBatch implements OnlineQuery. On the parallel data path the
// thread allocation is real: up to that many goroutines fold the epoch's
// per-partition row runs into private partial tables concurrently.
func (r *Running[T]) ProcessBatch(batchRows, threads int) (int, float64) {
	if r.partials == nil {
		batch, ok := r.consumer.NextBatch(batchRows)
		if !ok {
			return 0, 0
		}
		r.proc.Process(batch, r.gt)
		return len(batch), r.cost.BatchCost(len(batch), threads)
	}
	batches, ok := r.consumer.NextBatchPartitioned(batchRows)
	if !ok {
		return 0, 0
	}
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	runPartitions(threads, batches, r.partials, r.proc.Process)
	r.merged = nil
	return n, r.cost.BatchCost(n, threads)
}

// EpochCost implements OnlineQuery. Both data paths draw min(batchRows,
// Remaining()) rows per batch, so the consumer's position prices the epoch.
func (r *Running[T]) EpochCost(batchRows, batches, threads int) float64 {
	var cost float64
	for left := r.consumer.Remaining(); batches > 0 && batchRows > 0 && left > 0; batches-- {
		n := min(batchRows, left)
		cost += r.cost.BatchCost(n, threads)
		left -= n
	}
	return cost
}

// Exhausted implements OnlineQuery.
func (r *Running[T]) Exhausted() bool { return r.consumer.Remaining() == 0 }

// Snapshot implements OnlineQuery.
func (r *Running[T]) Snapshot() Snapshot { return r.table().Snapshot() }

// Accuracy implements OnlineQuery.
func (r *Running[T]) Accuracy() float64 {
	if r.final == nil {
		return 0
	}
	return r.final.Accuracy(r.table().Snapshot())
}

// AccuracyOf implements OnlineQuery.
func (r *Running[T]) AccuracyOf(snap Snapshot) float64 {
	if r.final == nil {
		return 0
	}
	return r.final.Accuracy(snap)
}

// DataProgress implements OnlineQuery.
func (r *Running[T]) DataProgress() float64 { return r.consumer.Progress() }

// RowsProcessed implements OnlineQuery.
func (r *Running[T]) RowsProcessed() int64 { return int64(r.consumer.Read()) }

// ConfidenceInterval implements OnlineQuery.
func (r *Running[T]) ConfidenceInterval(group string, col int, z float64) (lo, hi float64, ok bool) {
	return r.table().ConfidenceInterval(group, col, z, r.consumer.Progress())
}

// StateMemMB implements OnlineQuery.
func (r *Running[T]) StateMemMB() float64 {
	var b int64
	if r.partials == nil {
		b = r.gt.StateBytes()
	} else {
		for _, p := range r.partials {
			b += p.StateBytes()
		}
	}
	if r.proc.AuxBytes != nil {
		b += r.proc.AuxBytes()
	}
	return float64(b) / (1 << 20)
}
