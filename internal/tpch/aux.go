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

// appendAux appends m as a count followed by (key gap, put(value)) pairs.
func appendAux[V any](b []byte, m map[int32]V, put func([]byte, V) []byte) []byte {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	prev := int64(keyFloor)
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(int64(k)-prev))
		prev = int64(k)
		b = put(b, m[k])
	}
	return b
}

// decodeAux reads what appendAux wrote into a fresh map; valueBytes is the
// least get consumes, which bounds the count by the input left.
func decodeAux[V any](d *aqp.Dec, valueBytes int, get func(*aqp.Dec) V) map[int32]V {
	n := d.Count(1 + valueBytes)
	m := make(map[int32]V, n)
	prev := int64(keyFloor)
	for i := 0; i < n; i++ {
		gap := d.Uvarint()
		if gap == 0 || gap > uint64(math.MaxInt32-prev) {
			d.Failf("aux key gap %d after key %d", gap, prev)
			gap = 0
		}
		prev += int64(gap)
		m[int32(prev)] = get(d)
	}
	return m
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
