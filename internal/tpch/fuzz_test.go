package tpch

import (
	"bytes"
	"testing"

	"rotary/internal/codec"
)

// FuzzCheckpointDecode is internal/aqp's fuzz target of the same name
// pointed at the four real aux codecs (Q4's key set, Q17's and Q18's
// per-key structs, Q21's per-order supplier lists): no input panics, a
// rejected one leaves the query as it was, an accepted one re-encodes
// canonically and can keep running.
func FuzzCheckpointDecode(f *testing.F) {
	cat := NewCatalog(Generate(0.002, 3), 3)
	auxQueries := []string{"q4", "q17", "q18", "q21"}
	for _, name := range auxQueries {
		q, err := cat.NewQuery(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, rows := range []int{0, 3000, 1 << 20} { // pristine, mid-stream, exhausted
			q.ProcessBatch(rows, 1)
			cp, _ := q.Checkpoint()
			f.Add(cp)
			f.Add(cp[:len(cp)-len(cp)/8-1])
			f.Add(append(cp[:len(cp):len(cp)], 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))
		}
	}
	// Q18 entries for order keys that cannot exist, which the decoder
	// once accepted.
	q18, _ := cat.NewQuery("q18")
	pristine, _ := q18.Checkpoint()
	for _, key := range []int64{-5, 1 << 30} {
		f.Add(withAuxEntry(pristine, key, append(codec.AppendFloat(nil, 5), 0)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range auxQueries {
			q, _ := cat.NewQuery(name)
			q.ProcessBatch(500, 1)
			before, _ := q.Checkpoint()
			if err := q.Restore(data); err != nil {
				if after, _ := q.Checkpoint(); !bytes.Equal(before, after) {
					t.Fatalf("%s: rejected input (%v) still changed the query\ninput: %x", name, err, data)
				}
				continue
			}
			out, _ := q.Checkpoint()
			back, _ := cat.NewQuery(name)
			if err := back.Restore(out); err != nil {
				t.Fatalf("%s: round trip rejected its own output: %v\ninput:  %x\noutput: %x", name, err, data, out)
			}
			if out2, _ := back.Checkpoint(); !bytes.Equal(out, out2) {
				t.Fatalf("%s: checkpoint not canonical:\n%x\n%x", name, out, out2)
			}
			for n, _ := q.ProcessBatch(4000, 1); n > 0; n, _ = q.ProcessBatch(4000, 1) {
			}
			q.Snapshot()
		}
	})
}
