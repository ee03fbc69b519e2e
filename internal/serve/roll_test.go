package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rotary/internal/diskio"
)

var errCrashed = errors.New("process crashed")

// crashIO is the real disk with a crash point: after its first `after`
// mutating operations (write opens, writes, fsyncs, renames, removes,
// directory fsyncs) every later one fails without touching the disk, as
// if the process had died there. Reads and closes pass through: they
// change nothing on disk. A negative `after` never crashes. It also logs
// each remove and whether its target existed.
type crashIO struct {
	diskio.IO
	after   int
	ops     int
	removes []string // base names, "!" prefixed when the file was absent
}

func newCrashIO() *crashIO { return &crashIO{IO: diskio.OS{}, after: -1} }

func (c *crashIO) step() error {
	if c.after >= 0 && c.ops >= c.after {
		return errCrashed
	}
	c.ops++
	return nil
}

type crashFile struct {
	diskio.File
	c *crashIO
}

func (f crashFile) Write(p []byte) (int, error) {
	if err := f.c.step(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f crashFile) Sync() error {
	if err := f.c.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (c *crashIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		if err := c.step(); err != nil {
			return nil, err
		}
	}
	f, err := c.IO.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return crashFile{File: f, c: c}, nil
}

func (c *crashIO) Rename(oldpath, newpath string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.IO.Rename(oldpath, newpath)
}

func (c *crashIO) Remove(name string) error {
	if err := c.step(); err != nil {
		return err
	}
	op := filepath.Base(name)
	if _, err := os.Stat(name); err != nil {
		op = "!" + op
	}
	c.removes = append(c.removes, op)
	return c.IO.Remove(name)
}

func (c *crashIO) SyncDir(dir string) error {
	if err := c.step(); err != nil {
		return err
	}
	return c.IO.SyncDir(dir)
}

// liveAndDoneGroups appends n finished jobs and n still-queued ones, so a
// recovery has both terminal rows and jobs to re-register.
func liveAndDoneGroups(t *testing.T, jl *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		live := fmt.Sprintf("live%03d", i)
		recs := append(lifecycleGroup(i),
			Record{Kind: recSubmit, ID: live, Statement: "q6 ACC MIN 90% WITHIN 9000 SECONDS", At: float64(i)},
			Record{Kind: recVerdict, ID: live, Status: "admitted", At: float64(i)},
		)
		if err := jl.Append(recs...); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

// TestJournalCompactionDirSyncFailureLatchesDegraded: a compaction whose
// directory fsync alone fails has published a segment whose name a crash
// may forget, so appending acked records into it could lose them. The
// append that triggered it stays acked (its group is durable in the old
// segment), the journal latches degraded, and a heal over the recovered
// disk rolls on and keeps every record.
func TestJournalCompactionDirSyncFailureLatchesDegraded(t *testing.T) {
	dir := t.TempDir()
	dio := newCompactIO()
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	defer jl.Close()
	liveAndDoneGroups(t, jl, 3)
	dio.failSyncDir.Store(true)
	jl.SetCompactBytes(1)
	if err := jl.Append(lifecycleGroup(100)...); err != nil {
		t.Fatalf("the append behind the failed compaction was refused: %v", err)
	}
	if jl.Degraded() == nil {
		t.Fatal("a compaction whose directory sync failed left the journal healthy")
	}
	if _, compactions, _, _ := jl.Stats(); compactions != 0 {
		t.Fatalf("a failed compaction counted: %d", compactions)
	}
	if err := jl.Append(Record{Kind: recClock, At: 500}); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("append after the failed compaction: %v, want ErrJournalDegraded", err)
	}
	dio.failSyncDir.Store(false)
	jl.SetCompactBytes(0)
	if err := jl.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if err := jl.Append(lifecycleGroup(101)...); err != nil {
		t.Fatalf("append after the heal: %v", err)
	}
	want := jl.snapshotJobs()
	jl.Close()
	re := openTestJournal(t, dir)
	if got := re.Recovered().Jobs; !reflect.DeepEqual(got, want) || len(got) != 8 {
		t.Fatalf("recovered %d jobs, want the 8 acked:\n got %+v\nwant %+v", len(got), got, want)
	}
}

// rollCase is one roll the crash-point table stops inside: prepare
// brings the journal to the roll's doorstep, roll runs it. The first
// acked operations of roll belong to the append that triggers it: a
// crash before they finish loses an append that was never acked.
type rollCase struct {
	name    string
	prepare func(t *testing.T, jl *Journal)
	roll    func(jl *Journal) error
	acked   int
}

var rollCases = []rollCase{
	{
		name: "compaction",
		prepare: func(t *testing.T, jl *Journal) {
			liveAndDoneGroups(t, jl, 4)
			jl.SetCompactBytes(1)
		},
		// The append's own write and fsync come first; its group is acked
		// whatever happens to the roll behind it.
		roll:  func(jl *Journal) error { return jl.Append(lifecycleGroup(100)...) },
		acked: 2,
	},
	{
		name: "heal",
		prepare: func(t *testing.T, jl *Journal) {
			liveAndDoneGroups(t, jl, 4)
			jl.writeHook = func([]byte) (int, error) { return 0, errors.New("injected write failure") }
			if err := jl.Append(Record{Kind: recClock, At: 999}); err == nil {
				t.Fatal("append through a failing write succeeded")
			}
			jl.writeHook = nil
		},
		roll: func(jl *Journal) error { return jl.Heal() },
	},
}

// runRoll opens a journal over a fresh directory, prepares it, arms the
// crash point `after` operations into the roll (negative: no crash),
// runs the roll, and abandons the journal as a killed process would. It
// returns the directory and how many operations the roll issued.
func runRoll(t *testing.T, rc rollCase, after int) (dir string, rollOps int) {
	t.Helper()
	dir = t.TempDir()
	dio := newCrashIO()
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	rc.prepare(t, jl)
	start := dio.ops
	if after >= 0 {
		dio.after = start + after
	}
	if err := rc.roll(jl); after < 0 && err != nil {
		t.Fatalf("control roll: %v", err)
	}
	rollOps = dio.ops - start
	jl.Close()
	return dir, rollOps
}

// TestJournalRollCrashPoints stops a compaction roll and a heal roll
// after each of their disk operations, then reopens: recovery must find
// exactly the control run's state (a heal that did not publish its
// barrier counts one heal fewer), and at most one superseded segment may
// be left behind.
func TestJournalRollCrashPoints(t *testing.T) {
	for _, rc := range rollCases {
		t.Run(rc.name, func(t *testing.T) {
			controlDir, n := runRoll(t, rc, -1)
			control := openTestJournal(t, controlDir).Recovered()
			if n < 6 {
				t.Fatalf("the control roll issued %d operations", n)
			}
			for after := rc.acked; after < n; after++ {
				dir, _ := runRoll(t, rc, after)
				got := openTestJournal(t, dir).Recovered()
				heals := got.Heals
				if rc.name == "heal" && heals == control.Heals-1 {
					got.Heals = control.Heals
				}
				if !reflect.DeepEqual(got, control) {
					t.Fatalf("crash after operation %d of %d recovered\n%+v\nwant (control)\n%+v", after, n, got, control)
				}
				segs, err := listSegments(diskio.OS{}, dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(segs) > 2 {
					t.Fatalf("crash after operation %d of %d left segments %v", after, n, segs)
				}
				if len(segs) == 1 && heals != control.Heals && segs[0] != 0 {
					t.Fatalf("crash after operation %d: the rolled segment %v replays without its barrier", after, segs)
				}
			}
		})
	}
}

// TestJournalRollRemovesOnlySegmentsOnDisk: every roll — compaction or
// heal — reclaims exactly the segments it supersedes and issues no
// remove for a file that is not there, so a roll's cost does not grow
// with the number of rolls before it.
func TestJournalRollRemovesOnlySegmentsOnDisk(t *testing.T) {
	dir := t.TempDir()
	dio := newCrashIO()
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	defer jl.Close()
	jl.SetCompactBytes(1) // the trigger is 2·S, the snapshot's size
	degrade := func() {
		jl.writeHook = func([]byte) (int, error) { return 0, errors.New("injected write failure") }
		jl.Append(Record{Kind: recClock, At: 1})
		jl.writeHook = nil
	}
	rolls := 0
	for i, heal := range []bool{false, false, true, false, true, true, false} {
		before, _ := listSegments(diskio.OS{}, dir)
		dio.removes = nil
		if heal {
			degrade()
			if err := jl.Heal(); err != nil {
				t.Fatalf("roll %d: Heal: %v", i, err)
			}
		} else {
			// Append until the growth-relative trigger fires.
			_, c0, _, _ := jl.Stats()
			for k := 0; ; k++ {
				if err := jl.Append(lifecycleGroup(1000*i + k)...); err != nil || jl.Degraded() != nil {
					t.Fatalf("roll %d: compaction: %v / %v", i, err, jl.Degraded())
				}
				if _, c1, _, _ := jl.Stats(); c1 > c0 {
					break
				}
				before, _ = listSegments(diskio.OS{}, dir)
				dio.removes = nil
			}
		}
		rolls++
		var want []string
		for _, s := range before {
			want = append(want, segmentName(s))
		}
		if !reflect.DeepEqual(dio.removes, want) {
			t.Fatalf("roll %d (heal %v) removed %v, want exactly the superseded %v", i, heal, dio.removes, want)
		}
		for _, r := range dio.removes {
			if strings.HasPrefix(r, "!") {
				t.Fatalf("roll %d removed a segment that is not on disk: %v", i, dio.removes)
			}
		}
		if after, _ := listSegments(diskio.OS{}, dir); !reflect.DeepEqual(after, []int{jl.Segment()}) {
			t.Fatalf("after roll %d the directory holds segments %v, want only the active %d", i, after, jl.Segment())
		}
	}
	if jl.Segment() != rolls {
		t.Fatalf("%d rolls reached segment %d", rolls, jl.Segment())
	}
}
