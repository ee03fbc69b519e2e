package aqp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rotary/internal/stream"
)

// FuzzCheckpointDecode fuzzes Restore on both data paths: no input may
// panic, a rejected input must leave the query as it was, and anything
// accepted must re-encode to a canonical form — Checkpoint after Restore
// is itself restorable and checkpoints to the same bytes again.
func FuzzCheckpointDecode(f *testing.F) {
	topic := stream.NewTopic("t", synthRows(5, 400, 7), 3)
	queries := []struct {
		path string
		mk   func() *Running[synthRow]
	}{
		{"partitioned", func() *Running[synthRow] {
			return NewRunning("fz", stream.NewConsumer(topic), allKindSpecs(), synthProcessor(), CostModel{})
		}},
		{"aux", func() *Running[synthRow] {
			return NewRunning("fz", stream.NewConsumer(topic), allKindSpecs(), auxProcessor(), CostModel{})
		}},
	}
	for _, qs := range queries {
		q := qs.mk()
		for _, rows := range []int{0, 150, 250} { // pristine, mid-stream, exhausted
			q.ProcessBatch(rows, 2)
			cp, err := q.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(cp)
			for _, data := range unreachablePositions(cp, q.consumer.Read(), topic.Len(), topic.Partitions()) {
				f.Add(data)
			}
			f.Add(cp[:len(cp)/2])                  // truncated mid-table
			f.Add(cp[:len(cp)-1])                  // truncated in the last field
			f.Add(append(cp[:len(cp):len(cp)], 0)) // trailing byte
		}
	}
	// A 0xFFFFFFFF count where the name length, then the group count, goes.
	huge := binary.AppendUvarint(nil, 0xFFFFFFFF)
	f.Add(huge)
	f.Add(append([]byte{2, 'f', 'z', 3, 0, 0, 0, 0, 0, 5, 3}, huge...))
	f.Add([]byte{})
	f.Add([]byte(`{"name":"fz","consumer":{"offsets":[0,0,0],"next":0,"read":0},"rows":0}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, qs := range queries {
			path, mk := qs.path, qs.mk
			q := mk()
			q.ProcessBatch(100, 1)
			before, _ := q.Checkpoint()
			if err := q.Restore(data); err != nil {
				if after, _ := q.Checkpoint(); !bytes.Equal(before, after) {
					t.Fatalf("%s: rejected input (%v) still changed the query\ninput: %x", path, err, data)
				}
				continue
			}
			out, _ := q.Checkpoint()
			back := mk()
			if err := back.Restore(out); err != nil {
				t.Fatalf("%s: round trip rejected its own output: %v\ninput:  %x\noutput: %x", path, err, data, out)
			}
			if out2, _ := back.Checkpoint(); !bytes.Equal(out, out2) {
				t.Fatalf("%s: checkpoint not canonical:\n%x\n%x", path, out, out2)
			}
			// What was accepted must also be safe to keep running.
			for n, _ := q.ProcessBatch(64, 2); n > 0; n, _ = q.ProcessBatch(64, 2) {
			}
			q.Snapshot()
		}
	})
}
