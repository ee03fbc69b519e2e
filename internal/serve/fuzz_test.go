package serve

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay: whatever bytes follow a valid journal prefix —
// torn appends, bit flips, hostile garbage, even well-formed extra
// lines — recovery must (1) never panic or error, (2) replay exactly
// the longest valid prefix and report everything after it as dropped,
// (3) truncate the file so that recovery is idempotent: a second open
// finds a clean journal and drops zero bytes, (4) agree with a fresh
// open about the recovered job registry, and (5) learn the compaction
// trigger's snapshot size from the last snapshot line of the valid
// prefix. The prefix is either a young journal (plain records) or, with
// aged set, a snapshot-headed one as compaction and heal leave behind.
func FuzzJournalReplay(f *testing.F) {
	// A realistic valid prefix: one prior incarnation's lifecycle.
	young := validJournalBytes(f)
	aged := agedJournalBytes(f)

	frame := func(rec Record) []byte {
		line, err := frameJournalLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	f.Add(false, []byte{})                                                        // clean journal
	f.Add(false, []byte("RJNL1 12345678 {"))                                      // torn append, no newline
	f.Add(false, []byte("RJNL1 zzzzzzzz {}\n"))                                   // malformed checksum field
	f.Add(false, []byte("\n\n\n"))                                                // empty lines
	f.Add(false, []byte("garbage tail\n"))                                        // no magic
	f.Add(false, frame(Record{Kind: recEpoch, ID: "q-1", Epochs: 3, At: 42}))     // valid extra line
	f.Add(false, frame(Record{Kind: recTerminal, ID: "q-1", Status: "attained"})) // valid terminal
	half := frame(Record{Kind: recGrant, ID: "q-1", At: 50})
	f.Add(false, half[:len(half)/2]) // torn mid-line
	flip := frame(Record{Kind: recClock, At: 60})
	flip[len(flip)/2] ^= 0x40
	f.Add(false, flip) // bit flip inside a framed line
	// Snapshot-headed (aged) prefixes: clean, extended, torn, and a young
	// journal that meets a snapshot line mid-file.
	f.Add(true, []byte{})
	f.Add(true, frame(Record{Kind: recTerminal, ID: "q-2", Status: "expired", At: 70}))
	f.Add(true, half[:len(half)/2])
	f.Add(false, aged)

	f.Fuzz(func(t *testing.T, agedPrefix bool, tail []byte) {
		base := young
		if agedPrefix {
			base = aged
		}
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		data := append(append([]byte{}, base...), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Reference model: scan the raw bytes exactly as recovery defines
		// the valid prefix — whole newline-terminated lines that frame and
		// parse, up to the first deviation.
		wantValid, wantSnap := int64(0), int64(0)
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			line, rerr := r.ReadBytes('\n')
			if rerr == io.EOF && len(line) == 0 {
				break
			}
			if rerr != nil {
				break
			}
			rec, perr := parseJournalLine(line[:len(line)-1])
			if perr != nil {
				break
			}
			if rec.Kind == recSnapshot {
				wantSnap = int64(len(line))
			}
			wantValid += int64(len(line))
		}

		jl, err := OpenJournalIO(dir, nil)
		if err != nil {
			t.Fatalf("recovery must tolerate any tail, got error: %v", err)
		}
		rec := jl.Recovered()
		if got, want := rec.DroppedBytes, int64(len(data))-wantValid; got != want {
			t.Fatalf("dropped %d bytes, want %d (file %d, valid prefix %d)", got, want, len(data), wantValid)
		}
		if wantValid < int64(len(base)) {
			t.Fatalf("valid prefix %d shrank below the untouched base journal (%d bytes)", wantValid, len(base))
		}
		if _, _, _, snap := jl.Stats(); snap != wantSnap {
			t.Fatalf("journal learned snapshotBytes=%d, last valid snapshot line is %d bytes", snap, wantSnap)
		}
		firstJobs := rec.Jobs
		firstEpoch := rec.ServerEpoch
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}

		// The surviving file must start with exactly the valid prefix
		// (recovery appends only its own server-epoch record after it).
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(after)) < wantValid || !bytes.Equal(after[:wantValid], data[:wantValid]) {
			t.Fatal("truncated journal no longer starts with the valid prefix")
		}

		// Idempotence: the recovered journal is clean.
		jl2, err := OpenJournalIO(dir, nil)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer jl2.Close()
		rec2 := jl2.Recovered()
		if rec2.DroppedBytes != 0 {
			t.Fatalf("second open dropped %d bytes from an already-recovered journal", rec2.DroppedBytes)
		}
		if rec2.ServerEpoch != firstEpoch+1 {
			t.Fatalf("server epoch %d after restart, want %d", rec2.ServerEpoch, firstEpoch+1)
		}
		if len(rec2.Jobs) != len(firstJobs) {
			t.Fatalf("job registry diverged across recoveries: %d vs %d jobs", len(rec2.Jobs), len(firstJobs))
		}
		for i := range firstJobs {
			if rec2.Jobs[i] != firstJobs[i] {
				t.Fatalf("job %d diverged across recoveries: %+v vs %+v", i, rec2.Jobs[i], firstJobs[i])
			}
		}
	})
}

// agedJournalBytes builds a snapshot-headed journal: the folded state of
// validJournalBytes' history, a boot stamp, and a short tail.
func agedJournalBytes(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	for _, rec := range []Record{
		{Kind: recSnapshot, ServerEpoch: 1, At: 15, Jobs: []JobRecord{
			{ID: "q-1", ReqID: "r1", Statement: "select avg(x)", BatchRows: 500, ArrivalAt: 1, Status: "pending", Epochs: 1},
			{ID: "q-2", ReqID: "r2", Statement: "select sum(y)", BatchRows: 200, ArrivalAt: 2, Status: "pending", BestEffort: true},
		}},
		{Kind: recServerEpoch, ServerEpoch: 2, At: 15},
		{Kind: recGrant, ID: "q-2", At: 16},
		{Kind: recEpoch, ID: "q-2", Epochs: 1, At: 22},
	} {
		line, err := frameJournalLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// validJournalBytes builds a well-formed journal: an incarnation stamp,
// two submitted jobs, one admitted/granted/finished, one still pending.
func validJournalBytes(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	for _, rec := range []Record{
		{Kind: recServerEpoch, ServerEpoch: 1, At: 0},
		{Kind: recSubmit, ID: "q-1", ReqID: "r1", Statement: "select avg(x)", BatchRows: 500, At: 1},
		{Kind: recVerdict, ID: "q-1", Status: "admitted", At: 1},
		{Kind: recSubmit, ID: "q-2", ReqID: "r2", Statement: "select sum(y)", BatchRows: 200, At: 2},
		{Kind: recVerdict, ID: "q-2", Status: "degraded", At: 2},
		{Kind: recGrant, ID: "q-1", At: 3},
		{Kind: recEpoch, ID: "q-1", Epochs: 1, At: 9},
		{Kind: recClock, At: 15},
	} {
		line, err := frameJournalLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}
