package tpch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// sortEverything is the encoder auxMap.append replaced: collect every key
// of the map, sort, write. It is the reference for the bytes.
func sortEverything[V any](b []byte, m map[int32]V, put func([]byte, V) []byte) []byte {
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

// Inserts, Q21-style deletes and re-inserts of deleted keys interleaved
// with encodes: every encode writes what sorting the whole map would, and
// leaves the key slice ascending with exactly the live keys.
func TestAuxMapEncodesLikeFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := newAuxMap[int64]()
	put := func(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }
	for round := 0; round < 40; round++ {
		for i := rng.Intn(200); i > 0; i-- {
			k := int32(rng.Intn(3000) - 1500)
			if _, ok := a.m[k]; !ok {
				a.add(k, rng.Int63())
			}
		}
		for k := range a.m {
			if rng.Intn(4) == 0 {
				delete(a.m, k)
			}
		}
		if round%3 == 2 {
			continue // let deletes and re-inserts pile up across rounds
		}
		got, want := a.append(nil, put), sortEverything(nil, a.m, put)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d keys encode to %d bytes, sorting everything gives %d", round, len(a.m), len(got), len(want))
		}
		if len(a.keys) != len(a.m) || a.sorted != len(a.keys) || !slices.IsSorted(a.keys) {
			t.Fatalf("round %d: key slice has %d keys (%d sorted) for %d live", round, len(a.keys), a.sorted, len(a.m))
		}
	}
}

// The four aux queries checkpointed every few hundred rows, and rebuilt
// from their own bytes part-way, write at every step the bytes of a query
// that streamed the same rows and encodes for the first time — whose one
// encode sorts every key it holds.
func TestAuxCheckpointsMatchFirstEncode(t *testing.T) {
	cat := testCatalog(t, 0.002)
	for _, name := range []string{"q4", "q17", "q18", "q21"} {
		inc, err := cat.NewQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for step := 0; step < 12; step++ {
			n, _ := inc.ProcessBatch(700, 1)
			rows += n
			got, _ := inc.Checkpoint()
			once, _ := cat.NewQuery(name)
			once.ProcessBatch(rows, 1)
			if want, _ := once.Checkpoint(); !bytes.Equal(got, want) {
				t.Fatalf("%s after %d rows (step %d): incremental checkpoint differs from a first encode", name, rows, step)
			}
			if step == 5 {
				inc, _ = cat.NewQuery(name)
				if err := inc.Restore(got); err != nil {
					t.Fatalf("%s: restore: %v", name, err)
				}
			}
		}
	}
}
