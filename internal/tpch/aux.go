package tpch

import (
	"encoding/binary"
	"math"

	"rotary/internal/codec"
)

// Checkpoint codecs for the per-key auxiliary state of Q4/Q17/Q18/Q21,
// behind aqp.Processor's SaveAux/LoadAux. Keys are written ascending, each
// as its gap from the one before, so equal state gives equal bytes and a
// decoded store re-encodes to what was read.

// keyFloor sits below every int32, so the first key's gap is positive too.
const keyFloor = math.MinInt32 - 1

// auxStore holds one V per key of the dense range 1..n (order or part
// keys). slot[k-1] is one past the index of k's value in vals, 0 if k is
// absent; values live in vals by value, and the indices of deleted ones
// wait in free for the next add. slot is allocated by the first add, so a
// query that never folds a row holds nothing. A pointer that at or add
// returns is valid until the next add.
type auxStore[V any] struct {
	n    int
	slot []int32
	vals []V
	free []int32
}

func newAuxStore[V any](n int) *auxStore[V] { return &auxStore[V]{n: n} }

// len reports the live keys.
func (a *auxStore[V]) len() int { return len(a.vals) - len(a.free) }

// at returns k's value, or nil if k is absent.
func (a *auxStore[V]) at(k int32) *V {
	if uint(k-1) >= uint(len(a.slot)) || a.slot[k-1] == 0 {
		return nil
	}
	return &a.vals[a.slot[k-1]-1]
}

// add stores a zero V under a key in 1..n that a does not hold and returns it.
func (a *auxStore[V]) add(k int32) *V {
	if a.slot == nil {
		a.slot = make([]int32, a.n)
	}
	var i int32
	if f := len(a.free); f > 0 {
		i, a.free = a.free[f-1], a.free[:f-1]
		a.vals[i] = *new(V)
	} else {
		i = int32(len(a.vals))
		a.vals = append(a.vals, *new(V))
	}
	a.slot[k-1] = i + 1
	return &a.vals[i]
}

// del removes a key a holds.
func (a *auxStore[V]) del(k int32) {
	a.free = append(a.free, a.slot[k-1]-1)
	a.slot[k-1] = 0
}

// append appends the store as a count followed by (key gap, put(value))
// pairs, walking the slots in key order.
func (a *auxStore[V]) append(b []byte, put func([]byte, *V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(a.len()))
	prev := int64(keyFloor)
	for i, s := range a.slot {
		if s == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(int64(i+1)-prev))
		prev = int64(i + 1)
		b = put(b, &a.vals[s-1])
	}
	return b
}

// decodeAux reads what append wrote into a fresh store over keys 1..n.
// Keys must strictly ascend inside 1..n; valueBytes is the least get
// consumes, which bounds the count by the input left. get decodes key k's
// value into v and may reject it with d.Failf.
func decodeAux[V any](d *codec.Dec, n, valueBytes int, get func(d *codec.Dec, k int32, v *V)) *auxStore[V] {
	a := newAuxStore[V](n)
	count := d.Count(1 + valueBytes)
	if count == 0 {
		return a
	}
	a.slot, a.vals = make([]int32, n), make([]V, count)
	prev := int64(keyFloor)
	for i := range a.vals {
		gap := d.Uvarint()
		if gap == 0 || gap > uint64(int64(n)-prev) || prev+int64(gap) < 1 {
			d.Failf("aux key gap %d after key %d leaves 1..%d", gap, prev, n)
			return a
		}
		prev += int64(gap)
		a.slot[prev-1] = int32(i + 1)
		get(d, int32(prev), &a.vals[i])
	}
	return a
}

// appendKeys and decodeKeys carry Q21's supplier lists in stored order.
// decodeKeys reads a list into dst, which it must fit, and returns its
// length; Process indexes the supplier table with these keys, so it
// rejects any outside 1..maxKey.
func appendKeys(b []byte, keys []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(k))
	}
	return b
}

func decodeKeys(d *codec.Dec, dst []int32, maxKey int) uint8 {
	n := d.Count(1)
	if n > len(dst) {
		d.Failf("%d supplier keys where at most %d fit", n, len(dst))
		return 0
	}
	for i := range dst[:n] {
		k := d.Uvarint()
		if k < 1 || k > uint64(maxKey) {
			d.Failf("supplier key %d outside 1..%d", k, maxKey)
		}
		dst[i] = int32(k)
	}
	return uint8(n)
}
