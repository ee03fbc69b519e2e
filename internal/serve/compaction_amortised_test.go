package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rotary/internal/diskio"
)

// compactIO is a test-local disk decorator around the real filesystem.
// It counts compaction output (bytes written to the atomic-write temp
// file, and renames publishing it), can fail exactly the directory
// operations — Rename and SyncDir, as on a directory gone read-only — so
// an append's own write+fsync on the open segment succeeds and only the
// compaction behind it (and any heal) breaks, which Faulty.ForceFail
// cannot express, and can skip fsyncs so a 20 000-group property test
// stays fast (the amortisation counts do not depend on durability).
type compactIO struct {
	diskio.IO
	noSync     bool
	tmpBytes   atomic.Int64
	renames    atomic.Int64
	failDirOps atomic.Bool
}

func newCompactIO() *compactIO { return &compactIO{IO: diskio.OS{}} }

type compactFile struct {
	diskio.File
	io    *compactIO
	isTmp bool
}

func (f *compactFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.isTmp {
		f.io.tmpBytes.Add(int64(n))
	}
	return n, err
}

func (f *compactFile) Sync() error {
	if f.io.noSync {
		return nil
	}
	return f.File.Sync()
}

func (c *compactIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	f, err := c.IO.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &compactFile{File: f, io: c, isTmp: strings.HasSuffix(name, ".tmp")}, nil
}

func (c *compactIO) Rename(oldpath, newpath string) error {
	if c.failDirOps.Load() {
		return errors.New("injected rename failure")
	}
	c.renames.Add(1)
	return c.IO.Rename(oldpath, newpath)
}

func (c *compactIO) SyncDir(dir string) error {
	if c.failDirOps.Load() {
		return errors.New("injected dir-sync failure")
	}
	if c.noSync {
		return nil
	}
	return c.IO.SyncDir(dir)
}

// lifecycleGroup is one job's whole journaled life as a single group:
// what an aged daemon's history is made of.
func lifecycleGroup(i int) []Record {
	id := fmt.Sprintf("j%06d", i)
	at := float64(i)
	return []Record{
		{Kind: recSubmit, ID: id, ReqID: "req-" + id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: at},
		{Kind: recVerdict, ID: id, Status: "admitted", At: at},
		{Kind: recTerminal, ID: id, Status: "attained", Epochs: 3, At: at + 0.5},
	}
}

// TestJournalCompactionAmortised is the tentpole's property: with the
// growth-relative trigger, folding the history is paid for by appends
// proportional to the history. Over N groups the compaction count is
// logarithmic in the final size and the total bytes rewritten are a
// small multiple of the final file — under the old absolute trigger
// both were linear in N once the snapshot passed the floor (every
// append refolded: ~19 900 compactions and gigabytes rewritten here).
func TestJournalCompactionAmortised(t *testing.T) {
	const n, floor = 20000, 4096
	dio := newCompactIO()
	dio.noSync = true
	jl, err := OpenJournalIO(t.TempDir(), dio)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	defer jl.Close()
	jl.SetCompactBytes(floor)
	var appended int64
	for i := 0; i < n; i++ {
		recs := lifecycleGroup(i)
		for _, r := range recs {
			line, err := frameJournalLine(r)
			if err != nil {
				t.Fatal(err)
			}
			appended += int64(len(line))
		}
		if err := jl.Append(recs...); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		// The stated bound: never more than max(C, 2·S) plus one group.
		if _, _, size, snap := jl.Stats(); size > max(floor, 2*snap)+1024 {
			t.Fatalf("after group %d the segment is %d bytes with a %d-byte snapshot: bound max(C, 2S)+group broken", i, size, snap)
		}
	}
	_, compactions, size, snap := jl.Stats()
	if compactions != dio.renames.Load() {
		t.Fatalf("journal counted %d compactions, disk saw %d snapshot publications", compactions, dio.renames.Load())
	}
	// A fold turns a tail as large as the snapshot into snapshot growth at
	// the records' compression ratio r <= 1 (three framed records fold
	// into one job row here, r ~ 0.4), so folds are spaced geometrically
	// with ratio 1+r and their count is log_{1+r}(S/C): a small multiple
	// of log2, never linear.
	doublings := math.Ceil(math.Log2(float64(size) / floor))
	if limit := int64(2*doublings) + 3; compactions > limit {
		t.Fatalf("%d compactions for a %d-byte journal, want <= 2*ceil(log2(size/floor))+3 = %d", compactions, size, limit)
	}
	rewritten := dio.tmpBytes.Load()
	if rewritten > 4*size {
		t.Fatalf("compaction rewrote %d bytes for a %d-byte journal (snapshot %d), want <= 4x", rewritten, size, snap)
	}
	// The amortisation argument itself: every fold writes at most the
	// segment it replaces (<= 2·S + a group) and is triggered only after
	// >= S bytes of appends, so rewritten bytes stay within a constant
	// factor of appended bytes whatever the fold's compression ratio.
	if rewritten > 2*appended {
		t.Fatalf("compaction rewrote %d bytes against %d appended: not amortised O(1) per byte", rewritten, appended)
	}
	t.Logf("%d groups: %d compactions, %d bytes rewritten, %d appended, final %d (snapshot %d)",
		n, compactions, rewritten, appended, size, snap)
}

// agedJournal builds a journal whose snapshot alone exceeds the
// compaction floor it is later reopened with — the state the old rule
// refolded on every append — and returns its directory. It stops right
// after a compaction, so the closed segment is exactly its snapshot.
func agedJournal(t *testing.T, dio diskio.IO, minJobs int) string {
	t.Helper()
	dir := t.TempDir()
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	jl.SetCompactBytes(2048)
	for i := 0; ; i++ {
		_, before, _, _ := jl.Stats()
		if err := jl.Append(lifecycleGroup(i)...); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if _, after, _, _ := jl.Stats(); i >= minJobs && after > before {
			break
		}
	}
	if _, _, size, snap := jl.Stats(); snap <= 2048 || size != snap {
		t.Fatalf("aging premise broken: size %d, snapshot %d", size, snap)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// segmentHeadLen is the framed length of a segment file's first line.
func segmentHeadLen(t *testing.T, path string) (headLen, fileLen int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(strings.IndexByte(string(raw), '\n') + 1), int64(len(raw))
}

// TestJournalAgedReopenDoesNotCompact: a restart on an aged journal
// learns the snapshot size from the replayed segment head, so neither
// the boot's server-epoch append nor the appends after it refold the
// history, and the reopened state is exactly what the disk holds.
func TestJournalAgedReopenDoesNotCompact(t *testing.T) {
	dio := newCompactIO()
	dir := agedJournal(t, dio, 200)
	want, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	headLen, _ := segmentHeadLen(t, filepath.Join(dir, journalFile))

	dio.renames.Store(0)
	// The 2 048 floor stands in for DefaultCompactBytes: the snapshot
	// already exceeds it, which is what "aged" means.
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer jl.Close()
	jl.SetCompactBytes(2048)
	_, _, size, snap := jl.Stats()
	if snap != headLen {
		t.Fatalf("reopened journal learned snapshotBytes=%d, segment head is %d bytes", snap, headLen)
	}
	if snap <= 2048 || size <= 2048 {
		t.Fatalf("premise: snapshot %d / size %d must exceed the 2048 floor", snap, size)
	}
	got := jl.Recovered()
	want.ServerEpoch++ // the reopen is a new incarnation
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened state diverges from ReplayJournal:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < 100; i++ {
		if err := jl.Append(Record{Kind: recClock, At: float64(1000 + i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if _, compactions, _, _ := jl.Stats(); compactions != 0 || dio.renames.Load() != 0 {
		t.Fatalf("aged journal compacted %d times (%d renames) at boot + appends under 2·S", compactions, dio.renames.Load())
	}
	// …and it is not pinned: once the tail outgrows the snapshot the fold
	// does run, and snapshotBytes follows the new head.
	for i := 0; ; i++ {
		if err := jl.Append(lifecycleGroup(100000 + i)...); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if _, compactions, _, _ := jl.Stats(); compactions > 0 {
			break
		}
		if i > 1000 {
			t.Fatal("journal never compacted after its tail outgrew the snapshot")
		}
	}
	if _, _, size, snap2 := jl.Stats(); snap2 <= snap || size != snap2 {
		t.Fatalf("after the fold: size %d, snapshot %d (was %d) — head not tracked", size, snap2, snap)
	}
}

// TestJournalHealTracksSnapshotBytes: a heal rolls to a segment headed
// by a fresh snapshot; snapshotBytes must follow it so the next appends
// neither refold immediately (stale-small S) nor never (stale-large S).
func TestJournalHealTracksSnapshotBytes(t *testing.T) {
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 1})
	dir := agedJournal(t, faulty, 100)
	jl, err := OpenJournalIO(dir, faulty)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer jl.Close()
	jl.SetCompactBytes(2048)
	// Grow the tail so the healed snapshot differs from the replayed one.
	for i := 0; i < 10; i++ {
		if err := jl.Append(lifecycleGroup(100000 + i)...); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, before := jl.Stats()
	faulty.ForceFail(nil)
	if err := jl.Append(Record{Kind: recClock, At: 9999}); err == nil {
		t.Fatal("append succeeded inside the fault window")
	}
	faulty.Clear()
	if err := jl.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	headLen, fileLen := segmentHeadLen(t, filepath.Join(dir, segmentName(jl.Segment())))
	_, c0, size, snap := jl.Stats()
	if snap != headLen || snap <= before || size != fileLen {
		t.Fatalf("after heal: snapshotBytes %d (head %d, before %d), size %d (file %d)", snap, headLen, before, size, fileLen)
	}
	if err := jl.Append(Record{Kind: recClock, At: 10000}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if _, c1, _, _ := jl.Stats(); c1 != c0 {
		t.Fatalf("first append after the heal compacted (%d -> %d): snapshotBytes did not follow the rolled segment", c0, c1)
	}
}

// TestCompactionFailureKeepsDurableGroupAcked: the compaction runs after
// the group's write+fsync succeeded and its records were applied, so its
// failure must latch degraded for the NEXT mutating op, not un-ack this
// one. Before the fix the submit below was answered journal-degraded,
// its durable records were shelved and re-appended after the heal (twice
// in the journal), and the records counter skipped them.
func TestCompactionFailureKeepsDurableGroupAcked(t *testing.T) {
	dio := newCompactIO()
	d := newDaemon(t, daemon{durable: true, dio: dio, cfg: Config{HealProbeSecs: 0.01}})
	d.start(t)
	c := dial(t, d.socket)
	const stmt = "q1 ACC MIN 60% WITHIN 900 SECONDS"

	if r := c.call(t, Message{Op: "submit", ID: "pre", ReqID: "req-pre", Statement: stmt}); !r.OK {
		t.Fatalf("submit pre: %+v", r)
	}
	// Arm: the next append crosses the floor and its compaction's rename
	// fails; the append's own write and fsync go through untouched.
	dio.failDirOps.Store(true)
	d.jl.SetCompactBytes(1)
	r := c.call(t, Message{Op: "submit", ID: "trigger", ReqID: "req-trigger", Statement: stmt})
	if !r.OK {
		t.Fatalf("submit whose group is durable was refused because the compaction behind it failed: %+v", r)
	}
	if d.jl.Degraded() == nil {
		t.Fatal("failed compaction did not latch the journal degraded")
	}
	if r := c.call(t, Message{Op: "submit", ID: "refused", Statement: stmt}); r.Code != CodeJournalDegraded {
		t.Fatalf("next mutating op after the failed compaction: %+v, want journal-degraded", r)
	}

	// The fault clears; the next probed request heals and acks resume.
	dio.failDirOps.Store(false)
	d.jl.SetCompactBytes(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(20 * time.Millisecond)
		r = c.call(t, Message{Op: "submit", ID: "post", ReqID: "req-post", Statement: stmt})
		if r.OK {
			break
		}
		if r.Code != CodeJournalDegraded || time.Now().After(deadline) {
			t.Fatalf("submit after the fault cleared: %+v", r)
		}
	}
	if heals, _ := d.jl.HealStats(); heals != 1 || d.jl.Degraded() != nil {
		t.Fatalf("heals=%d degraded=%v after recovery", heals, d.jl.Degraded())
	}

	// Counter == journal: every record the journal holds was counted once
	// (the boot's server-epoch record is appended by OpenJournalIO, before
	// the server and its counter exist).
	appends, _, _, _ := d.jl.Stats()
	if got := d.srv.met.journalRecords.Value(); got != appends-1 {
		t.Fatalf("rotary_serve_journal_records_total = %d, journal appended %d (+1 boot record)", got, appends-1)
	}
	d.kill()

	// Replay holds each record once: no shelf re-append duplicated the
	// trigger's submit, in the registry or on disk.
	rec, err := ReplayJournal(d.dir)
	if err != nil {
		t.Fatalf("ReplayJournal: %v", err)
	}
	var ids []string
	for _, j := range rec.Jobs {
		ids = append(ids, j.ID)
	}
	if want := []string{"pre", "trigger", "post"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("replayed jobs %v, want %v", ids, want)
	}
	segs, err := listSegments(diskio.OS{}, d.dir)
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]int{} // id -> snapshot rows + submit records across the chain
	for _, seq := range segs {
		raw, err := os.ReadFile(filepath.Join(d.dir, segmentName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			r, err := parseJournalLine([]byte(line))
			if err != nil {
				t.Fatalf("segment %d holds an unparsable line: %v", seq, err)
			}
			if r.Kind == recSubmit {
				held[r.ID]++
			}
			for _, j := range r.Jobs {
				held[j.ID]++
			}
		}
	}
	if want := map[string]int{"pre": 1, "trigger": 1, "post": 1}; !reflect.DeepEqual(held, want) {
		t.Fatalf("chain holds %v, want each job exactly once %v", held, want)
	}
}
