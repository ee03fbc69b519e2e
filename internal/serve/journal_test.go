package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jl, err := OpenJournalIO(dir, nil)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// TestJournalRoundTrip appends a full job lifecycle, reopens the journal,
// and checks the recovered state: statuses, arrival order, clock
// position, and the incremented server epoch.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if jl.ServerEpoch() != 1 {
		t.Fatalf("first incarnation epoch %d, want 1", jl.ServerEpoch())
	}
	recs := []Record{
		{Kind: recSubmit, ID: "a", ReqID: "r-a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", BatchRows: 64, At: 1},
		{Kind: recVerdict, ID: "a", Status: "admitted", At: 1},
		{Kind: recSubmit, ID: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		{Kind: recVerdict, ID: "b", Status: "degraded", At: 2},
		{Kind: recGrant, ID: "a", At: 3},
		{Kind: recEpoch, ID: "a", Epochs: 1, At: 9},
		{Kind: recSubmit, ID: "c", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 10},
		{Kind: recVerdict, ID: "c", Status: "rejected", At: 10},
		{Kind: recGrant, ID: "a", At: 11},
		{Kind: recTerminal, ID: "a", Status: "attained", Epochs: 2, At: 20},
		{Kind: recClock, At: 60},
	}
	if err := jl.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jl.Close()

	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.ServerEpoch != 2 || re.ServerEpoch() != 2 {
		t.Fatalf("second incarnation epoch %d/%d, want 2", rec.ServerEpoch, re.ServerEpoch())
	}
	if rec.VirtualNow != 60 {
		t.Fatalf("recovered clock %v, want 60", rec.VirtualNow)
	}
	if rec.DroppedBytes != 0 {
		t.Fatalf("clean journal dropped %d bytes", rec.DroppedBytes)
	}
	if len(rec.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(rec.Jobs), rec.Jobs)
	}
	// Arrival order is preserved.
	for i, want := range []string{"a", "b", "c"} {
		if rec.Jobs[i].ID != want {
			t.Fatalf("arrival order %v, want a,b,c", rec.Jobs)
		}
	}
	byID := map[string]JobRecord{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	if j := byID["a"]; j.Status != "attained" || j.Epochs != 2 || j.ReqID != "r-a" || j.ArrivalAt != 1 {
		t.Fatalf("job a recovered as %+v", j)
	}
	if j := byID["b"]; j.Status != "pending" || !j.BestEffort {
		t.Fatalf("degraded job b recovered as %+v", j)
	}
	if j := byID["c"]; j.Status != "rejected" {
		t.Fatalf("rejected job c recovered as %+v", j)
	}
	live := rec.NonTerminal()
	if len(live) != 1 || live[0].ID != "b" {
		t.Fatalf("non-terminal set %+v, want only b", live)
	}
	ids := re.NonTerminalIDs()
	if !ids["b"] || ids["a"] || ids["c"] {
		t.Fatalf("NonTerminalIDs %v", ids)
	}
}

// TestJournalCompaction drives the journal past a tiny compaction
// threshold and checks the file is folded into a snapshot that replays to
// the same state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	jl.SetCompactBytes(512)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("j%02d", i)
		if err := jl.Append(
			Record{Kind: recSubmit, ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: float64(i)},
			Record{Kind: recVerdict, ID: id, Status: "admitted", At: float64(i)},
			Record{Kind: recTerminal, ID: id, Status: "attained", At: float64(i) + 0.5},
		); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	_, compactions, size, _ := jl.Stats()
	if compactions == 0 {
		t.Fatalf("no compaction after %d appends over a 512-byte threshold", 64*3)
	}
	if size > 64*1024 {
		t.Fatalf("journal still %d bytes after compaction", size)
	}
	jl.Close()

	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if len(rec.Jobs) != 64 {
		t.Fatalf("post-compaction replay recovered %d jobs, want 64", len(rec.Jobs))
	}
	for i, j := range rec.Jobs {
		if want := fmt.Sprintf("j%02d", i); j.ID != want || j.Status != "attained" {
			t.Fatalf("job %d recovered as %+v, want %s attained", i, j, want)
		}
	}
}

// journalWithPrefix writes a known two-job journal and returns the byte
// length of its valid content, for the corruption tests to damage.
func journalWithPrefix(t *testing.T, dir string) int64 {
	t.Helper()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
		Record{Kind: recSubmit, ID: "tail", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	jl.Close()
	st, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatalf("stat journal: %v", err)
	}
	return st.Size()
}

// TestJournalCorruptTruncatedTail tears the last record mid-line (a
// crash during an append): recovery must degrade to the longest valid
// prefix, not refuse to start.
func TestJournalCorruptTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	journalWithPrefix(t, dir)
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the final line's newline and half its payload.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := data[:cut+(len(data)-cut)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	// The torn line was the "tail" submit itself, so only "keep" (and its
	// verdict) survive in the valid prefix.
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" || rec.Jobs[0].Status != "pending" {
		t.Fatalf("prefix replay recovered %+v, want only keep (pending)", rec.Jobs)
	}
	// The journal file itself must have been truncated back to the valid
	// prefix plus the new incarnation's server-epoch record, so the next
	// restart replays cleanly.
	re.Close()
	clean := openTestJournal(t, dir)
	if got := clean.Recovered(); got.DroppedBytes != 0 {
		t.Fatalf("journal still corrupt after truncating recovery: %+v", got)
	}
}

// TestJournalCorruptBadCRC flips a payload byte in the last record (a
// bit-flipped disk block): the CRC must mark the end of the valid prefix.
func TestJournalCorruptBadCRC(t *testing.T) {
	dir := t.TempDir()
	journalWithPrefix(t, dir)
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the final record's JSON payload.
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("CRC mismatch not detected: %+v", rec)
	}
	// The flipped record was the "tail" submit: only the first two
	// records survive, so only "keep" is recovered.
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" {
		t.Fatalf("prefix replay recovered %+v, want only keep", rec.Jobs)
	}
	if rec.Jobs[0].Status != "pending" {
		t.Fatalf("keep recovered as %q, want pending", rec.Jobs[0].Status)
	}
}

// TestJournalFrameErrorMidBatch injects a frame error on the middle
// record of a three-record group: Append must leave both the in-memory
// mirror and the file exactly as they were — the historical bug folded
// each record into memory before framing it, so a mid-batch frame error
// left memory ahead of disk and compaction could snapshot state the file
// never held.
func TestJournalFrameErrorMidBatch(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}
	appendsBefore, _, sizeBefore, _ := jl.Stats()

	jl.frameHook = func(rec Record) ([]byte, error) {
		if rec.ID == "boom" {
			return nil, fmt.Errorf("injected frame error")
		}
		return frameJournalLine(rec)
	}
	err := jl.Append(
		Record{Kind: recSubmit, ID: "ghost", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		Record{Kind: recSubmit, ID: "boom", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
		Record{Kind: recSubmit, ID: "late", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2},
	)
	if err == nil {
		t.Fatal("Append with injected frame error succeeded")
	}
	jl.frameHook = nil

	// Nothing from the failed group may be visible in memory — not even
	// the records framed before the error.
	for _, id := range []string{"ghost", "boom", "late"} {
		if _, ok := jl.Job(id); ok {
			t.Fatalf("record %q from failed group folded into memory", id)
		}
	}
	if appends, _, size, _ := jl.Stats(); appends != appendsBefore || size != sizeBefore {
		t.Fatalf("failed group moved stats: appends %d→%d size %d→%d",
			appendsBefore, appends, sizeBefore, size)
	}
	// A frame error is not a torn write: the journal stays healthy.
	if err := jl.Append(Record{Kind: recClock, At: 3}); err != nil {
		t.Fatalf("append after frame error: %v", err)
	}
	jl.Close()

	// Disk agreement: a fresh replay sees exactly what memory saw.
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes != 0 {
		t.Fatalf("frame-error group left %d corrupt bytes on disk", rec.DroppedBytes)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" {
		t.Fatalf("replay after frame error recovered %+v, want only keep", rec.Jobs)
	}
	if rec.VirtualNow != 3 {
		t.Fatalf("replay clock %v, want 3", rec.VirtualNow)
	}
}

// TestJournalDegradedLatchAfterTornWrite injects a write error that tears
// a frame mid-record: the journal must latch degraded and refuse further
// appends — the historical bug kept writing past the tear, and
// longest-valid-prefix recovery silently dropped every post-tear record.
func TestJournalDegradedLatchAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "keep", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "keep", Status: "admitted", At: 1},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Write half the group's bytes for real, then fail: a torn frame now
	// ends the file.
	jl.writeHook = func(b []byte) (int, error) {
		n, _ := jl.f.Write(b[:len(b)/2])
		return n, fmt.Errorf("injected write error")
	}
	err := jl.Append(Record{Kind: recSubmit, ID: "torn", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 2})
	if err == nil {
		t.Fatal("Append with injected write error succeeded")
	}
	jl.writeHook = nil

	if jl.Degraded() == nil {
		t.Fatal("journal not latched degraded after torn write")
	}
	if _, ok := jl.Job("torn"); ok {
		t.Fatal("torn record folded into memory")
	}
	// Post-tear appends must be refused, not written past the tear where
	// replay could never read them.
	err = jl.Append(Record{Kind: recSubmit, ID: "lost", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 3})
	if err == nil || !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("post-tear append error = %v, want ErrJournalDegraded", err)
	}
	jl.Close()

	// Recovery degrades to the pre-tear prefix; nothing after the tear was
	// accepted, so nothing after the tear is lost.
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.DroppedBytes == 0 {
		t.Fatalf("torn frame not detected on replay: %+v", rec)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "keep" || rec.Jobs[0].Status != "pending" {
		t.Fatalf("post-tear replay recovered %+v, want only keep (pending)", rec.Jobs)
	}
}

// TestJournalGarbageFile starts from a file of pure garbage: everything
// is dropped, recovery proceeds from empty state.
func TestJournalGarbageFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("not a journal\nat all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jl := openTestJournal(t, dir)
	rec := jl.Recovered()
	if rec.DroppedBytes == 0 || len(rec.Jobs) != 0 {
		t.Fatalf("garbage journal recovered %+v", rec)
	}
	// And the journal is writable again.
	if err := jl.Append(Record{Kind: recClock, At: 1}); err != nil {
		t.Fatalf("append after garbage recovery: %v", err)
	}
}
