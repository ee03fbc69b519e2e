package aqp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"rotary/internal/stream"
)

// This file is the job checkpoint codec: the whole Running state appended
// into one buffer in one pass, and decoded back without trusting a byte of
// it. It is the payload core.CheckpointStore frames (frame version 2).
//
//	uvarint len | query name
//	uvarint partitions | per partition, uvarint records read from it
//	uvarint round-robin pointer: records read mod partitions
//	uvarint records read
//	uvarint aggregate specs (cells per group)
//	uvarint tables: 1 interleaved, or one partial per partition
//	table   uvarint groups | per group, ascending by name:
//	          uvarint len | name | per spec a 40-byte cell
//	aux     the processor's SaveAux bytes, to the end of the payload
//
// The consumer's position is one number, the records read; the offsets
// and the pointer are derived from it (stream.Offset), and Restore
// rejects a section whose offsets or pointer disagree with its count, or
// whose count passes the topic's end, since no run reaches such a state.
//
// A cell is Sum, SumSq, Count, Min, Max as five little-endian 64-bit
// words, floats by math.Float64bits — the ±Inf extrema sentinels, NaN and
// an overflowed SumSq are ordinary bit patterns. Groups are written in
// name order and processors write aux keys in key order, so equal state
// gives equal bytes.

const cellBytes = 40

// AppendFloat appends f's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendTo appends the table's groups in name order.
func (t *GroupTable) appendTo(b []byte) []byte {
	type row struct {
		name  string
		cells []cell
	}
	rows := make([]row, 0, len(t.groups))
	for g, cs := range t.groups {
		rows = append(rows, row{g, cs})
	}
	slices.SortFunc(rows, func(x, y row) int { return strings.Compare(x.name, y.name) })
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = binary.AppendUvarint(b, uint64(len(r.name)))
		b = append(b, r.name...)
		for _, c := range r.cells {
			b = AppendFloat(AppendFloat(b, c.Sum), c.SumSq)
			b = binary.LittleEndian.AppendUint64(b, uint64(c.Count))
			b = AppendFloat(AppendFloat(b, c.Min), c.Max)
		}
	}
	return b
}

// decodeTable reads one table of len(specs)-cell groups. Names must
// strictly ascend, so a decoded table re-encodes to the same bytes.
func decodeTable(d *Dec, specs []AggSpec) *GroupTable {
	n := d.Count(1 + len(specs)*cellBytes)
	t := &GroupTable{specs: specs, groups: make(map[string][]cell, n)}
	slab := make([]cell, n*len(specs))
	prev := ""
	for i := 0; i < n; i++ {
		name := string(d.bytes(d.Count(1)))
		if i > 0 && name <= prev {
			d.Failf("group %q out of order", name)
		}
		prev = name
		cs := slab[i*len(specs) : (i+1)*len(specs) : (i+1)*len(specs)]
		for j := range cs {
			cs[j] = cell{Sum: d.Float(), SumSq: d.Float(), Count: int64(d.u64()), Min: d.Float(), Max: d.Float()}
		}
		t.groups[name] = cs
	}
	return t
}

// tables lists the query's accumulators in checkpoint order.
func (r *Running[T]) tables() []*GroupTable {
	if r.partials == nil {
		return []*GroupTable{r.gt}
	}
	return r.partials
}

// Checkpoint implements OnlineQuery. The buffer is sized from this
// query's previous checkpoint and never reused: the store's memory tier
// and the executor's pristine copy keep what is returned.
func (r *Running[T]) Checkpoint() ([]byte, error) {
	b := make([]byte, 0, r.ckptLen+r.ckptLen/4+256)
	b = binary.AppendUvarint(b, uint64(len(r.name)))
	b = append(b, r.name...)
	read, parts := r.consumer.Read(), r.consumer.Partitions()
	b = binary.AppendUvarint(b, uint64(parts))
	for p := range parts {
		b = binary.AppendUvarint(b, uint64(stream.Offset(read, p, parts)))
	}
	b = binary.AppendUvarint(b, uint64(read%parts))
	b = binary.AppendUvarint(b, uint64(read))
	b = binary.AppendUvarint(b, uint64(len(r.specs)))
	tables := r.tables()
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for _, t := range tables {
		b = t.appendTo(b)
	}
	if r.proc.SaveAux != nil {
		b = r.proc.SaveAux(b)
	}
	r.ckptLen = len(b)
	return b, nil
}

// Restore implements OnlineQuery. It is all-or-nothing: everything is
// decoded into temporaries and checked against this query (name,
// partition, spec and table counts, a position some run can reach, no
// trailing bytes) before the first field of r changes, so a rejected
// checkpoint leaves the query exactly as it was.
func (r *Running[T]) Restore(data []byte) error {
	d := &Dec{b: data}
	if name := string(d.bytes(d.Count(1))); d.err == nil && name != r.name {
		return fmt.Errorf("aqp: restore: checkpoint is for %q, query is %q", name, r.name)
	}
	parts := r.consumer.Partitions()
	if n := d.Count(1); d.err == nil && n != parts {
		d.Failf("%d partition offsets for %d partitions", n, parts)
	}
	offsets := make([]uint64, parts)
	for p := range offsets {
		offsets[p] = d.Uvarint()
	}
	pointer := d.Uvarint()
	read := int(d.Uvarint()) // Seek range-checks it
	for p, off := range offsets {
		if want := stream.Offset(read, p, parts); off != uint64(want) {
			d.Failf("partition %d offset %d, but %d records read leave it at %d", p, off, read, want)
		}
	}
	if want := read % parts; pointer != uint64(want) {
		d.Failf("round-robin pointer %d, but %d records read leave it at %d", pointer, read, want)
	}
	if n := d.Uvarint(); d.err == nil && n != uint64(len(r.specs)) {
		d.Failf("%d cells per group for %d specs", n, len(r.specs))
	}
	tables := make([]*GroupTable, len(r.tables()))
	if n := d.Uvarint(); d.err == nil && n != uint64(len(tables)) {
		d.Failf("%d aggregate tables, this query's data path keeps %d", n, len(tables))
	}
	for i := range tables {
		tables[i] = decodeTable(d, r.specs)
	}
	commitAux := func() {}
	if r.proc.LoadAux != nil {
		commitAux = r.proc.LoadAux(d)
	}
	if len(d.b) > 0 {
		d.Failf("%d trailing bytes", len(d.b))
	}
	if d.err == nil {
		d.err = r.consumer.Seek(read)
	}
	if d.err != nil {
		return fmt.Errorf("aqp: restore %s: %w", r.name, d.err)
	}
	commitAux()
	if r.partials == nil {
		r.gt = tables[0]
	} else {
		r.partials, r.merged = tables, nil
	}
	return nil
}

// Dec reads checkpoint fields off bytes that are not trusted. The first
// truncated or malformed field latches an error and every later read
// returns zero, so a decoder reads straight through; Restore reports the
// latched error once the whole payload has been walked.
type Dec struct {
	b   []byte
	err error
}

// Failf latches a decode error; the first one wins.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Dec) bytes(n int) []byte {
	if n > len(d.b) {
		d.Failf("checkpoint truncated")
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Uvarint reads one unsigned varint.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Failf("checkpoint truncated")
	}
	if d.err != nil {
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads a uvarint element count and rejects it unless that many
// elements of at least minBytes each fit in the input left, so nothing
// sized from the result exceeds O(len(input)).
func (d *Dec) Count(minBytes int) int {
	v := d.Uvarint()
	if v > uint64(len(d.b)/minBytes) {
		d.Failf("count %d exceeds the %d bytes left", v, len(d.b))
		return 0
	}
	return int(v)
}

func (d *Dec) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float reads the eight bytes AppendFloat wrote.
func (d *Dec) Float() float64 { return math.Float64frombits(d.u64()) }
