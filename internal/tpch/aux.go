package tpch

import (
	"encoding/binary"
	"math"
	"slices"

	"rotary/internal/aqp"
)

// Checkpoint codecs for the per-key auxiliary maps of Q4/Q17/Q18/Q21,
// behind aqp.Processor's SaveAux/LoadAux. Keys are written ascending, each
// as its gap from the one before, so equal maps give equal bytes and a
// decoded map re-encodes to what was read.

// keyFloor sits below every int32, so the first key's gap is positive too.
const keyFloor = math.MinInt32 - 1

// auxMap keeps such a map's keys beside it, so that a checkpoint sorts only
// the keys added since the last one: keys[:sorted] ascends, the rest is in
// insertion order. A key deleted from m stays listed until the next encode.
type auxMap[V any] struct {
	m      map[int32]V
	keys   []int32
	sorted int
}

func newAuxMap[V any]() *auxMap[V] { return &auxMap[V]{m: make(map[int32]V)} }

// add stores v under a key m does not hold.
func (a *auxMap[V]) add(k int32, v V) {
	a.m[k] = v
	a.keys = append(a.keys, k)
}

// append appends the map as a count followed by (key gap, put(value))
// pairs, merging the new keys into the ascending rest as it writes; a key
// whose lookup misses (deleted) or that repeats (added again) is left out.
func (a *auxMap[V]) append(b []byte, put func([]byte, V) []byte) []byte {
	old, fresh := a.keys[:a.sorted], a.keys[a.sorted:]
	slices.Sort(fresh)
	merged := old[:0] // nothing new: dropping deleted keys in place is safe
	if len(fresh) > 0 {
		merged = make([]int32, 0, len(a.m))
	}
	b = binary.AppendUvarint(b, uint64(len(a.m)))
	prev := int64(keyFloor)
	for len(old)+len(fresh) > 0 {
		var k int32
		if len(fresh) == 0 || (len(old) > 0 && old[0] <= fresh[0]) {
			k, old = old[0], old[1:]
		} else {
			k, fresh = fresh[0], fresh[1:]
		}
		v, ok := a.m[k]
		if !ok || int64(k) == prev {
			continue
		}
		merged = append(merged, k)
		b = binary.AppendUvarint(b, uint64(int64(k)-prev))
		prev = int64(k)
		b = put(b, v)
	}
	a.keys, a.sorted = merged, len(merged)
	return b
}

// decodeAux reads what append wrote into a fresh map; valueBytes is the
// least get consumes, which bounds the count by the input left.
func decodeAux[V any](d *aqp.Dec, valueBytes int, get func(*aqp.Dec) V) *auxMap[V] {
	n := d.Count(1 + valueBytes)
	a := &auxMap[V]{m: make(map[int32]V, n), keys: make([]int32, 0, n), sorted: n}
	prev := int64(keyFloor)
	for i := 0; i < n; i++ {
		gap := d.Uvarint()
		if gap == 0 || gap > uint64(math.MaxInt32-prev) {
			d.Failf("aux key gap %d after key %d", gap, prev)
			gap = 0
		}
		prev += int64(gap)
		a.m[int32(prev)] = get(d)
		a.keys = append(a.keys, int32(prev))
	}
	return a
}

// appendKeys and decodeKeys carry Q21's supplier lists in stored order.
// Process indexes the supplier table with these keys, so decodeKeys
// rejects any outside 1..maxKey.
func appendKeys(b []byte, keys []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(k))
	}
	return b
}

func decodeKeys(d *aqp.Dec, maxKey int) []int32 {
	keys := make([]int32, d.Count(1))
	for i := range keys {
		k := d.Uvarint()
		if k < 1 || k > uint64(maxKey) {
			d.Failf("supplier key %d outside 1..%d", k, maxKey)
		}
		keys[i] = int32(k)
	}
	return keys
}
