// Package aqp is the online-aggregation engine that stands in for the
// paper's Spark-based progressive query processing system.
//
// The engine processes fact-table rows batch-by-batch (pulled from an
// internal/stream consumer), maintains running grouped aggregates, and
// exposes the two signals Rotary-AQP arbitrates on: the running accuracy
// αc/αf against the final answer (§IV-A) and the job's memory footprint.
// Job state — consumer offsets plus the whole aggregate table — serializes
// for the disk checkpointing the paper describes in §VI.
package aqp

import (
	"fmt"
	"math"
	"sort"
)

// AggKind identifies an aggregate function over a column.
type AggKind int

// Aggregate kinds supported by the engine; the 22 TPC-H queries use all of
// them.
const (
	Sum AggKind = iota
	Count
	Avg
	Min
	Max
)

// String returns the SQL spelling of k.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec declares one output aggregate column of a query.
type AggSpec struct {
	Name string  `json:"name"`
	Kind AggKind `json:"kind"`
	// Weight is the user-assigned column importance from §IV-A ("Rotary-AQP
	// also allows the users to specify the importance of each column by
	// assigning weights"). Zero means equal weight.
	Weight float64 `json:"weight,omitempty"`
}

// cell is the running state of one aggregate in one group. SumSq backs
// the optional confidence intervals of §III-B ("Additional error bounds,
// such as confidence interval, are optional"). Every field is a
// decomposable (mergeable) accumulator, which is what makes partial
// tables combinable: sums and counts add, extrema compare, and the
// pooled variance behind ConfidenceInterval falls out of Sum/SumSq/Count.
type cell struct {
	Sum   float64
	SumSq float64
	Count int64
	Min   float64
	Max   float64
}

// merge folds o into c. Addition order is caller-fixed (partials merge in
// partition-index order), which keeps the floating-point results
// deterministic.
func (c *cell) merge(o cell) {
	c.Sum += o.Sum
	c.SumSq += o.SumSq
	c.Count += o.Count
	if o.Min < c.Min {
		c.Min = o.Min
	}
	if o.Max > c.Max {
		c.Max = o.Max
	}
}

// value reduces the cell under kind.
func (c cell) value(kind AggKind) float64 {
	switch kind {
	case Sum:
		return c.Sum
	case Count:
		return float64(c.Count)
	case Avg:
		if c.Count == 0 {
			return 0
		}
		return c.Sum / float64(c.Count)
	case Min:
		if c.Count == 0 {
			return 0
		}
		return c.Min
	case Max:
		if c.Count == 0 {
			return 0
		}
		return c.Max
	default:
		return 0
	}
}

// GroupTable is the running grouped-aggregate state of one online query.
// It is the unit of checkpointing and the source of the intermediate
// results users see after every batch.
type GroupTable struct {
	specs  []AggSpec
	groups map[string][]cell
}

// NewGroupTable returns an empty table producing the given aggregate
// columns.
func NewGroupTable(specs []AggSpec) *GroupTable {
	if len(specs) == 0 {
		panic("aqp: query must declare at least one aggregate")
	}
	ss := make([]AggSpec, len(specs))
	copy(ss, specs)
	return &GroupTable{specs: ss, groups: make(map[string][]cell)}
}

// Specs returns the table's aggregate columns.
func (t *GroupTable) Specs() []AggSpec {
	out := make([]AggSpec, len(t.specs))
	copy(out, t.specs)
	return out
}

// Update folds one row's values into group. vals must align with the
// declared specs; for Count specs the value is ignored (the row counts).
// A NaN value skips that column for this row (conditional aggregates).
func (t *GroupTable) Update(group string, vals ...float64) {
	if len(vals) != len(t.specs) {
		panic(fmt.Sprintf("aqp: %d values for %d specs", len(vals), len(t.specs)))
	}
	cs, ok := t.groups[group]
	if !ok {
		cs = make([]cell, len(t.specs))
		for i := range cs {
			cs[i] = cell{Min: math.Inf(1), Max: math.Inf(-1)}
		}
		t.groups[group] = cs
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		c := &cs[i]
		c.Sum += v
		c.SumSq += v * v
		c.Count++
		if v < c.Min {
			c.Min = v
		}
		if v > c.Max {
			c.Max = v
		}
	}
}

// Merge folds other's running state into t: sums, sum-of-squares, and
// counts add; extrema compare. Merging the partials of a partitioned scan
// reproduces exactly the cell a single table would hold for every kind —
// Sum/Count trivially, Avg and the variance accumulators behind
// ConfidenceInterval because both are derived from the mergeable
// Sum/SumSq/Count triple, Min/Max because comparison is order-free.
//
// Determinism: distinct groups occupy independent cells, so the map
// iteration order inside one Merge call is unobservable; for a single
// cell, the floating-point addition order is the order of the Merge calls
// themselves. Callers that need bit-reproducible results (the parallel
// data path) therefore merge partials in a fixed order — partition index
// order — and get identical bits on every run at every worker width.
//
// The tables must share the same aggregate specs; Merge panics otherwise,
// as mixing tables from different queries is always a programming error.
func (t *GroupTable) Merge(other *GroupTable) {
	if len(other.specs) != len(t.specs) {
		panic(fmt.Sprintf("aqp: merging %d-spec table into %d-spec table", len(other.specs), len(t.specs)))
	}
	for i := range t.specs {
		if t.specs[i].Kind != other.specs[i].Kind {
			panic(fmt.Sprintf("aqp: merge spec %d kind mismatch: %v vs %v", i, t.specs[i].Kind, other.specs[i].Kind))
		}
	}
	for g, ocs := range other.groups {
		cs, ok := t.groups[g]
		if !ok {
			cs = make([]cell, len(ocs))
			copy(cs, ocs)
			t.groups[g] = cs
			continue
		}
		for i := range cs {
			cs[i].merge(ocs[i])
		}
	}
}

// ConfidenceInterval reports the normal-approximation confidence interval
// of one aggregate cell at confidence z (e.g. 1.96 for 95%): for AVG the
// standard error of the sample mean, for SUM/COUNT the Horvitz-Thompson
// scale-up error given the processed fraction of the data. MIN/MAX have
// no distributional error bound and report ok == false, as do cells with
// fewer than two observations.
func (t *GroupTable) ConfidenceInterval(group string, col int, z, fraction float64) (lo, hi float64, ok bool) {
	cs, found := t.groups[group]
	if !found || col < 0 || col >= len(t.specs) {
		return 0, 0, false
	}
	c := cs[col]
	if c.Count < 2 {
		return 0, 0, false
	}
	n := float64(c.Count)
	mean := c.Sum / n
	variance := c.SumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	se := math.Sqrt(variance / n)
	switch t.specs[col].Kind {
	case Avg:
		return mean - z*se, mean + z*se, true
	case Sum, Count:
		if fraction <= 0 || fraction > 1 {
			return 0, 0, false
		}
		// Scale-up estimate of the final value with its standard error.
		// Both kinds carry the finite-population correction √(1-fraction):
		// as the progressive sample approaches the full dataset the
		// estimate becomes exact and the interval collapses to a point.
		var est, width float64
		if t.specs[col].Kind == Sum {
			est = c.Sum / fraction
			width = z * se * n * math.Sqrt(1-fraction) / fraction
		} else {
			est = n / fraction
			width = z * math.Sqrt(n*(1-fraction)) / fraction
		}
		return est - width, est + width, true
	default:
		return 0, 0, false
	}
}

// Groups reports the number of groups materialized so far.
func (t *GroupTable) Groups() int { return len(t.groups) }

// Snapshot is an immutable view of the aggregates: group → one value per
// declared spec. It is what users receive after each epoch and what the
// accuracy computation compares against the final answer.
type Snapshot struct {
	Specs  []AggSpec            `json:"specs"`
	Groups map[string][]float64 `json:"groups"`
}

// Snapshot reduces the current running state.
func (t *GroupTable) Snapshot() Snapshot {
	out := Snapshot{Specs: t.Specs(), Groups: make(map[string][]float64, len(t.groups))}
	for g, cs := range t.groups {
		vals := make([]float64, len(cs))
		for i, c := range cs {
			vals[i] = c.value(t.specs[i].Kind)
		}
		out.Groups[g] = vals
	}
	return out
}

// GroupNames returns the snapshot's groups in sorted order.
func (s Snapshot) GroupNames() []string {
	names := make([]string, 0, len(s.Groups))
	for g := range s.Groups {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}

// ratio implements the paper's per-column accuracy αc/αf, made symmetric
// so aggregates that approach the final value from above (MIN shrinking,
// AVG oscillating) score in [0, 1] as well. Opposite signs score 0; two
// zeros score 1.
func ratio(current, final float64) float64 {
	const eps = 1e-12
	if math.Abs(final) < eps {
		if math.Abs(current) < eps {
			return 1
		}
		return 0
	}
	if current*final < 0 {
		return 0
	}
	a, b := math.Abs(current), math.Abs(final)
	if a > b {
		a, b = b, a
	}
	return a / b
}

// Accuracy computes the paper's multi-column accuracy of current against
// the final answer: accuracy = (1/k) Σ_k αc^k / αf^k, where each column's
// term averages the per-group ratios over the groups of the final answer
// (a group not yet materialized contributes 0). Column weights from the
// specs are honored; unset (zero) weights mean equal importance, the
// assumption applied in the paper's evaluation.
func Accuracy(current, final Snapshot) float64 { return NewFinal(final).Accuracy(current) }

// Final is a final answer prepared for scoring many snapshots against it:
// its group names are sorted once, not on every score.
type Final struct {
	snap  Snapshot
	names []string
}

// NewFinal prepares final for repeated Accuracy calls.
func NewFinal(final Snapshot) Final { return Final{snap: final, names: final.GroupNames()} }

// Accuracy is the package-level Accuracy of current against f.
func (f Final) Accuracy(current Snapshot) float64 {
	final := f.snap
	if len(final.Specs) == 0 || len(final.Groups) == 0 {
		return 1
	}
	k := len(final.Specs)
	weights := make([]float64, k)
	var wsum float64
	for i, spec := range final.Specs {
		w := spec.Weight
		if w < 0 {
			w = 0
		}
		weights[i] = w
		wsum += w
	}
	if wsum == 0 {
		for i := range weights {
			weights[i] = 1
		}
		wsum = float64(k)
	}
	// Iterate groups in sorted order so the floating-point accumulation is
	// deterministic — checkpoint round trips must reproduce accuracies
	// bit-for-bit.
	var acc float64
	for i := 0; i < k; i++ {
		var colAcc float64
		for _, g := range f.names {
			fvals := final.Groups[g]
			cvals, ok := current.Groups[g]
			if !ok || i >= len(cvals) || i >= len(fvals) {
				continue
			}
			colAcc += ratio(cvals[i], fvals[i])
		}
		colAcc /= float64(len(final.Groups))
		acc += weights[i] / wsum * colAcc
	}
	if acc > 1 {
		acc = 1
	}
	if acc < 0 {
		acc = 0
	}
	return acc
}

// StateBytes estimates the in-memory footprint of the running aggregate
// state, used by the memory-consumption estimator to track growth of
// stateful queries (Q17/Q18/Q21-style per-key maps).
func (t *GroupTable) StateBytes() int64 {
	const perGroup = 48 // map bucket + key header
	var b int64
	for g, cs := range t.groups {
		b += int64(len(g)) + perGroup + int64(len(cs))*32
	}
	return b
}
