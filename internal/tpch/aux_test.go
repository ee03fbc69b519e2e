package tpch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rotary/internal/aqp"
)

// sortEverything is the encoder of the map-backed store auxStore
// replaced: collect every key of the map, sort, write. It is the
// reference for the bytes.
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

// Inserts over keys 1..n, Q21-style deletes and re-inserts that reuse the
// freed slots, interleaved with encodes: every encode writes what sorting
// a map of the same entries would, every live key reads back its value,
// and the slab holds exactly the live values plus the free ones. An empty
// store holds no slots.
func TestAuxMapEncodesLikeFullSort(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	a := newAuxStore[int64](n)
	m := map[int32]int64{}
	put := func(b []byte, v int64) []byte { return binary.AppendUvarint(b, uint64(v)) }
	if got := a.append(nil, nil); !bytes.Equal(got, sortEverything(nil, m, put)) || a.slot != nil {
		t.Fatalf("empty store encodes to %x and holds %d slots", got, len(a.slot))
	}
	for round := 0; round < 40; round++ {
		for i := rng.Intn(200); i > 0; i-- {
			k := int32(1 + rng.Intn(n))
			if a.at(k) == nil {
				v := rng.Int63()
				*a.add(k) = v
				m[k] = v
			}
		}
		for k := range m {
			if rng.Intn(4) == 0 {
				a.del(k)
				delete(m, k)
			}
		}
		for k, v := range m {
			if got := a.at(k); got == nil || *got != v {
				t.Fatalf("round %d: key %d reads %v, want %d", round, k, got, v)
			}
		}
		if a.len() != len(m) || len(a.vals) != len(m)+len(a.free) {
			t.Fatalf("round %d: %d live, %d values, %d free for %d keys", round, a.len(), len(a.vals), len(a.free), len(m))
		}
		if round%3 == 2 {
			continue // let deletes and re-inserts pile up across rounds
		}
		got := a.append(nil, func(b []byte, v *int64) []byte { return put(b, *v) })
		if want := sortEverything(nil, m, put); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d keys encode to %d bytes, sorting everything gives %d", round, len(m), len(got), len(want))
		}
	}
}

// withAuxEntry returns a pristine query's checkpoint with its empty aux
// section (a zero count, the last byte) replaced by one entry: the key,
// written as aux.go writes it, and value as given.
func withAuxEntry(pristine []byte, key int64, value []byte) []byte {
	b := append(pristine[:len(pristine)-1:len(pristine)-1], 1)
	b = binary.AppendUvarint(b, uint64(key-keyFloor))
	return append(b, value...)
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

// The four aux queries at fixed points of a 500-row-batch drain — pristine,
// mid-stream (Q21 has finished and deleted orders by then), near the end
// and exhausted — checkpoint to these bytes and report this StateMemMB,
// bit for bit. The values were captured from the map-backed store this
// package kept before its key-indexed slots, so they pin the checkpoint
// format and the memory accounting that resume cost is charged from.
func TestAuxCheckpointGolden(t *testing.T) {
	golden := []struct {
		query  string
		rows   int
		sha256 string
		memMB  uint64
	}{
		{"q4", 0, "0153d6e5e4459598c9d63812e60f0830b7ed55ebd78c6584b25f2aaf0b39275b", 0x0},
		{"q4", 3000, "6eda0d15a7bd8d049935043565fad8e1d99fc7c451fd11981b45c8bc02143370", 0x3f54e80000000000},
		{"q4", 11000, "41e9edcbdddf72511dec8ff3395a0dc8c5c73a3fa720de83a8ca7a7c471ab3ae", 0x3f61540000000000},
		{"q4", 1 << 20, "ef4ff8c915340b0f216aa3a907996ff9190a00f96e121d88ed2cb8682851be4e", 0x3f61940000000000},
		{"q17", 0, "2f653f0d064d51817f75227a128a31df4ee974a3d97a44f0afecffe97d1737be", 0x0},
		{"q17", 3000, "018ba755c0e060b593d2a04ec64268f191f12776623b0d1aac9af993d8bd0935", 0x3f2a600000000000},
		{"q17", 11000, "75d05bc43e633ca14c7acbf36a42d45d506b24b5b1be0389100c04951b08d0e6", 0x3f2a600000000000},
		{"q17", 1 << 20, "8fee41c266d260a5db0778e1be06214f71bbebc1f0fc57a5ac36fd0ec94b639e", 0x3f2a600000000000},
		{"q18", 0, "1e084435a183a5299709bcb310b788d6be50882886ccc2dcbc8ba816021b4864", 0x0},
		{"q18", 3000, "9a6ee4f7e401e3ed1fa78b4b1c21b7d993ef3f4453097272be54115c7c41c12e", 0x3fb6260000000000},
		{"q18", 11000, "acf4d14337431a7bf8ed6255d4dd10fb56eba690f660e1e84d611934420787d8", 0x3fc15f8000000000},
		{"q18", 1 << 20, "132655826f0210b675da7cc462d47d5ae0195a9e232a725173d3401aa1003e37", 0x3fc1940000000000},
		{"q21", 0, "507c383db2eac9d251206c88da1a2ee6b393972b54b99522f4310dc4fb8a1997", 0x0},
		{"q21", 3000, "a9499412225dd4d1a084273e8802a3ce35daacf49f97db3d45ab459743e535df", 0x3fb4e20000000000},
		{"q21", 11000, "36a32e8439c36d0521e725197bac11546e3acdb05d832bbb63a7d03f0cf3aa55", 0x3fa3378000000000},
		{"q21", 1 << 20, "9266a130d3b479984d4f8da4a8d9ff8caccc5f05412043925eb42af7e18ad20d", 0x3f17000000000000},
	}
	cat := testCatalog(t, 0.002)
	var q aqp.OnlineQuery
	rows := 0
	for _, g := range golden {
		if g.rows == 0 {
			q, _ = cat.NewQuery(g.query)
			rows = 0
		}
		for rows < g.rows {
			n, _ := q.ProcessBatch(min(500, g.rows-rows), 1)
			if n == 0 {
				break
			}
			rows += n
		}
		cp, _ := q.Checkpoint()
		if sum := fmt.Sprintf("%x", sha256.Sum256(cp)); sum != g.sha256 {
			t.Errorf("%s after %d rows: checkpoint of %d bytes hashes to %s, want %s", g.query, rows, len(cp), sum, g.sha256)
		}
		if mem := q.StateMemMB(); math.Float64bits(mem) != g.memMB {
			t.Errorf("%s after %d rows: StateMemMB %v, want %v", g.query, rows, mem, math.Float64frombits(g.memMB))
		}
	}
}
