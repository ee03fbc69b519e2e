package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
	"rotary/internal/tpch"
)

// opLogIO records every operation the store issues, by base name, in
// order — the disk's view of a script.
type opLogIO struct {
	diskio.IO
	mu  sync.Mutex
	ops []string
}

func newOpLogIO(inner diskio.IO) *opLogIO {
	if inner == nil {
		inner = diskio.OS{}
	}
	return &opLogIO{IO: inner}
}

func (l *opLogIO) log(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, fmt.Sprintf(format, args...))
}

func (l *opLogIO) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

type opLogFile struct {
	diskio.File
	l *opLogIO
}

func (f opLogFile) Write(p []byte) (int, error) {
	f.l.log("write %d", len(p))
	return f.File.Write(p)
}
func (f opLogFile) Sync() error  { f.l.log("sync"); return f.File.Sync() }
func (f opLogFile) Close() error { f.l.log("close"); return f.File.Close() }

func (l *opLogIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	l.log("open %s", filepath.Base(name))
	f, err := l.IO.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return opLogFile{File: f, l: l}, nil
}
func (l *opLogIO) ReadFile(name string) ([]byte, error) {
	l.log("read %s", filepath.Base(name))
	return l.IO.ReadFile(name)
}
func (l *opLogIO) ReadDir(name string) ([]os.DirEntry, error) {
	l.log("readdir")
	return l.IO.ReadDir(name)
}
func (l *opLogIO) Rename(oldpath, newpath string) error {
	l.log("rename %s %s", filepath.Base(oldpath), filepath.Base(newpath))
	return l.IO.Rename(oldpath, newpath)
}
func (l *opLogIO) Remove(name string) error {
	l.log("remove %s", filepath.Base(name))
	return l.IO.Remove(name)
}
func (l *opLogIO) SyncDir(dir string) error {
	l.log("syncdir")
	return l.IO.SyncDir(dir)
}

// stagedStore opens a write-behind store over a logged disk with its
// metrics on a private registry.
func stagedStore(t *testing.T, dir string, inner diskio.IO) (*core.CheckpointStore, *opLogIO, *obs.Registry) {
	t.Helper()
	dio := newOpLogIO(inner)
	store, err := core.NewCheckpointStoreIO(dir, 0, func(string) bool { return true }, dio)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	store.DeferWrites()
	dio.take() // the startup sweep
	return store, dio, reg
}

func metric(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Value("rotary_ckpt_" + name)
	if !ok {
		t.Fatalf("metric rotary_ckpt_%s not registered", name)
	}
	return v
}

// onDisk reads id through a second, write-through store over the same
// directory: what a restarted daemon would find.
func onDisk(t *testing.T, dir, id string) (string, error) {
	t.Helper()
	reader, err := core.NewCheckpointStoreIO(dir, 0, func(string) bool { return true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := reader.Load(id)
	return string(data), err
}

// Three saves of one id between two flushes cost one atomic write, and
// until the flush the newest bytes are served from the stage as a disk
// hit, never a memory hit.
func TestStageCoalescesSavesIntoOneWrite(t *testing.T) {
	dir := t.TempDir()
	store, dio, reg := stagedStore(t, dir, nil)
	for _, v := range []string{"v1", "v2", "v3"} {
		if err := store.Save("j", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if ops := dio.take(); len(ops) != 0 {
		t.Fatalf("saves reached the disk before Flush: %v", ops)
	}
	if data, fromMem, err := store.Load("j"); err != nil || fromMem || string(data) != "v3" {
		t.Fatalf("load before flush: %q fromMemory=%v err=%v, want v3 as a disk hit", data, fromMem, err)
	}
	frame, err := store.Export("j")
	if err != nil {
		t.Fatalf("export before flush: %v", err)
	}
	other, err := core.NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Import("j", frame); err != nil {
		t.Fatalf("import of a staged export: %v", err)
	}
	if data, _, err := other.Load("j"); err != nil || string(data) != "v3" {
		t.Fatalf("exported frame carries %q (err %v), want v3", data, err)
	}
	if got := metric(t, reg, "staged_bytes"); got != 2 {
		t.Errorf("staged_bytes = %v before flush, want 2", got)
	}
	dio.take()
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"open j.ckpt.tmp", "write 18", "sync", "close", "rename j.ckpt.tmp j.ckpt", "syncdir"}
	if ops := dio.take(); !reflect.DeepEqual(ops, want) {
		t.Fatalf("flush issued %v, want one atomic write %v", ops, want)
	}
	if got, err := onDisk(t, dir, "j"); err != nil || got != "v3" {
		t.Fatalf("disk holds %q (err %v) after flush, want v3", got, err)
	}
	if err := store.Flush(); err != nil || len(dio.take()) != 0 {
		t.Fatalf("second flush with nothing staged touched the disk (err %v)", err)
	}
	if h := store.Health(); h.Writes != 3 || h.MemHits != 0 || h.DiskHits != 1 {
		t.Errorf("stats writes=%d mem=%d disk=%d, want 3 0 1", h.Writes, h.MemHits, h.DiskHits)
	}
	for name, want := range map[string]float64{"writes_total": 3, "disk_writes_total": 1, "coalesced_total": 2,
		"flush_errors_total": 0, "staged_bytes": 0, "disk_hits_total": 1, "mem_hits_total": 0} {
		if got := metric(t, reg, name); got != want {
			t.Errorf("rotary_ckpt_%s = %v, want %v", name, got, want)
		}
	}
}

// A job that goes terminal inside the step never costs a write; Close
// and abandonment both lose the stage, like the kill -9 they stand for.
func TestStageDeleteAndCloseWriteNothing(t *testing.T) {
	dir := t.TempDir()
	store, dio, reg := stagedStore(t, dir, nil)
	store.Save("gone", []byte("x"))
	if err := store.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, op := range dio.take() {
		if !strings.HasPrefix(op, "remove") {
			t.Fatalf("deleted-before-flush checkpoint caused %q", op)
		}
	}
	if _, _, err := store.Load("gone"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted staged checkpoint still loads: %v", err)
	}
	if got := metric(t, reg, "coalesced_total"); got != 1 {
		t.Errorf("coalesced_total = %v, want 1", got)
	}
	store.Save("lost", []byte("y"))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("close wrote or left %v", files)
	}
	if err := store.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("flush after close wrote %v", files)
	}
}

// A flush the disk refuses leaves the previous file valid and the newest
// frame staged, bills no virtual time, and the next flush lands it.
func TestFailedFlushKeepsStageAndPreviousFile(t *testing.T) {
	dir := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 3})
	store, _, reg := stagedStore(t, dir, faulty)
	store.Save("j", []byte("old"))
	store.Save("k", []byte("other"))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	store.Save("j", []byte("new"))
	faulty.ForceFail(nil)
	if err := store.Flush(); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("flush on a full disk: %v, want ErrTransient", err)
	}
	if got, err := onDisk(t, dir, "j"); err != nil || got != "old" {
		t.Fatalf("previous file reads %q (err %v) after the failed flush, want old", got, err)
	}
	if data, fromMem, err := store.Load("j"); err != nil || fromMem || string(data) != "new" {
		t.Fatalf("live load after the failed flush: %q fromMemory=%v err=%v, want new", data, fromMem, err)
	}
	if p := store.TakePenaltySecs(); p != 0 {
		t.Errorf("failed flush left %.1f penalty seconds for the next job to pay", p)
	}
	if h := store.Health(); h.Retries != 3 || h.TransientFailures != 1 {
		t.Errorf("health %+v, want the usual 3 retries then 1 transient failure", h)
	}
	if got := metric(t, reg, "flush_errors_total"); got != 1 {
		t.Errorf("flush_errors_total = %v, want 1", got)
	}
	faulty.Clear()
	if err := store.Flush(); err != nil {
		t.Fatalf("flush after the disk recovered: %v", err)
	}
	if got, err := onDisk(t, dir, "j"); err != nil || got != "new" {
		t.Fatalf("disk holds %q (err %v) after the retry, want new", got, err)
	}
	if got := metric(t, reg, "staged_bytes"); got != 0 {
		t.Errorf("staged_bytes = %v after the retry, want 0", got)
	}
}

// countedEncoder returns an encoder of payload that counts its calls.
func countedEncoder(calls *int, payload string) func() ([]byte, error) {
	return func() ([]byte, error) {
		*calls++
		return []byte(payload), nil
	}
}

// Three lazy saves of one id between two flushes cost one encode and one
// atomic write; a frame still pending holds no bytes, and the saves the
// stage absorbed read as writes_total − encodes_total.
func TestStageLazySavesEncodeOnceAtFlush(t *testing.T) {
	dir := t.TempDir()
	store, dio, reg := stagedStore(t, dir, nil)
	calls := 0
	for _, v := range []string{"v1", "v2", "v3"} {
		if err := store.SaveLazy("j", countedEncoder(&calls, v)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 || metric(t, reg, "staged_bytes") != 0 || len(dio.take()) != 0 {
		t.Fatalf("lazy saves ran %d encoders, hold %v bytes", calls, metric(t, reg, "staged_bytes"))
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{"open j.ckpt.tmp", "write 18", "sync", "close", "rename j.ckpt.tmp j.ckpt", "syncdir"}
	if ops := dio.take(); calls != 1 || !reflect.DeepEqual(ops, want) {
		t.Fatalf("flush ran %d encoders and issued %v, want 1 and %v", calls, ops, want)
	}
	if got, err := onDisk(t, dir, "j"); err != nil || got != "v3" {
		t.Fatalf("disk holds %q (err %v) after flush, want v3", got, err)
	}
	for name, want := range map[string]float64{"writes_total": 3, "encodes_total": 1, "disk_writes_total": 1,
		"coalesced_total": 2, "staged_bytes": 0} {
		if got := metric(t, reg, name); got != want {
			t.Errorf("rotary_ckpt_%s = %v, want %v", name, got, want)
		}
	}
}

// Load and Export force a pending frame exactly once; every later read,
// and the flush, reuse the bytes.
func TestStageReadsForceOnce(t *testing.T) {
	for _, first := range []string{"load", "export"} {
		store, _, reg := stagedStore(t, t.TempDir(), nil)
		calls := 0
		store.SaveLazy("j", countedEncoder(&calls, "state"))
		read := map[string]func(){
			"load": func() {
				if data, fromMem, err := store.Load("j"); err != nil || fromMem || string(data) != "state" {
					t.Fatalf("load: %q fromMemory=%v err=%v", data, fromMem, err)
				}
			},
			"export": func() {
				if _, err := store.Export("j"); err != nil {
					t.Fatalf("export: %v", err)
				}
			},
		}
		read[first]()
		if calls != 1 || metric(t, reg, "staged_bytes") != 5 {
			t.Fatalf("%s first: %d encoder calls, staged_bytes %v, want 1 and 5", first, calls, metric(t, reg, "staged_bytes"))
		}
		read["load"]()
		read["export"]()
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || metric(t, reg, "encodes_total") != 1 || metric(t, reg, "staged_bytes") != 0 {
			t.Fatalf("%s first: %d encoder calls after re-reads and a flush, encodes_total %v, staged_bytes %v",
				first, calls, metric(t, reg, "encodes_total"), metric(t, reg, "staged_bytes"))
		}
	}
}

// A frame nobody needed is never encoded: deleted, superseded, or dropped
// with the stage at Close.
func TestStageDeleteAndCloseRunNoEncoder(t *testing.T) {
	store, _, reg := stagedStore(t, t.TempDir(), nil)
	calls := 0
	store.SaveLazy("gone", countedEncoder(&calls, "x"))
	if err := store.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("gone"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted pending checkpoint still loads: %v", err)
	}
	store.SaveLazy("lost", countedEncoder(&calls, "y"))
	if err := store.Flush(); err != nil { // "lost" needed: one call
		t.Fatal(err)
	}
	store.SaveLazy("lost", countedEncoder(&calls, "z"))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
	if calls != 1 || metric(t, reg, "encodes_total") != 1 {
		t.Fatalf("%d encoder calls (encodes_total %v), want only the flushed frame's", calls, metric(t, reg, "encodes_total"))
	}
}

// A flush the disk refuses has already forced the frame: it stays staged
// as those bytes, and the retry writes them without asking the job — which
// may have moved on — to encode again.
func TestFailedFlushKeepsForcedBytes(t *testing.T) {
	dir := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 3})
	store, _, reg := stagedStore(t, dir, faulty)
	calls, live := 0, "at-save"
	store.SaveLazy("j", func() ([]byte, error) { calls++; return []byte(live), nil })
	faulty.ForceFail(nil)
	if err := store.Flush(); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("flush on a full disk: %v, want ErrTransient", err)
	}
	if got := metric(t, reg, "staged_bytes"); calls != 1 || got != 7 {
		t.Fatalf("failed flush: %d encoder calls, staged_bytes %v, want 1 and 7", calls, got)
	}
	live = "moved-on"
	faulty.Clear()
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := onDisk(t, dir, "j"); err != nil || got != "at-save" || calls != 1 {
		t.Fatalf("retry wrote %q (err %v) after %d encoder calls, want the bytes of the first force", got, err, calls)
	}
}

// A write-through store and one with a memory tier run the encoder inside
// the save, so they write — or hold — per save exactly what Save would.
func TestEagerStoresEncodeInsideSave(t *testing.T) {
	for _, slots := range []int{0, 2} {
		dio := newOpLogIO(nil)
		store, err := core.NewCheckpointStoreIO(t.TempDir(), slots, nil, dio)
		if err != nil {
			t.Fatal(err)
		}
		if slots > 0 {
			store.DeferWrites() // the memory tier takes precedence over the stage
		}
		dio.take()
		calls := 0
		for i, v := range []string{"a1", "a2"} {
			if err := store.SaveLazy("a", countedEncoder(&calls, v)); err != nil || calls != i+1 {
				t.Fatalf("slots=%d: save %d returned %v after %d encoder calls", slots, i+1, err, calls)
			}
		}
		opens := 0
		for _, op := range dio.take() {
			if strings.HasPrefix(op, "open ") {
				opens++
			}
		}
		if want := map[int]int{0: 2, 2: 0}[slots]; opens != want {
			t.Fatalf("slots=%d: %d disk writes for two saves, want %d", slots, opens, want)
		}
		if data, fromMem, err := store.Load("a"); err != nil || string(data) != "a2" || fromMem != (slots > 0) || calls != 2 {
			t.Fatalf("slots=%d: load %q fromMemory=%v err=%v after %d encoder calls", slots, data, fromMem, err, calls)
		}
		boom := errors.New("boom")
		if err := store.SaveLazy("a", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("slots=%d: failing encoder surfaced as %v", slots, err)
		}
		if data, _, err := store.Load("a"); err != nil || string(data) != "a2" {
			t.Fatalf("slots=%d: a failed encode replaced the checkpoint: %q %v", slots, data, err)
		}
	}
}

// Frames flush in first-staged order whatever order they were last saved
// in, so a seeded faulty disk sees the same sequence every run.
func TestFlushOrderIsFirstStaged(t *testing.T) {
	store, dio, _ := stagedStore(t, t.TempDir(), nil)
	for _, id := range []string{"c", "a", "b", "a", "c"} {
		store.Save(id, []byte(id))
	}
	store.Delete("a")
	store.Save("a", []byte("again"))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	var opened []string
	for _, op := range dio.take() {
		if id, ok := strings.CutPrefix(op, "open "); ok {
			opened = append(opened, strings.TrimSuffix(id, ".ckpt.tmp"))
		}
	}
	if want := []string{"c", "a", "b"}; !reflect.DeepEqual(opened, want) {
		t.Fatalf("flush wrote %v, want first-staged order %v", opened, want)
	}
}

// A store nobody switched to write-behind issues, operation for
// operation, what it issued before the stage existed — except that Import
// now goes through the same write (same operations, but counted).
func TestWriteThroughOpLogUnchanged(t *testing.T) {
	dio := newOpLogIO(nil)
	store, err := core.NewCheckpointStoreIO(t.TempDir(), 0, nil, dio)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	store.Save("a", []byte("a1"))
	store.Save("b", []byte("b1"))
	store.Save("a", []byte("a2"))
	if data, _, err := store.Load("a"); err != nil || string(data) != "a2" {
		t.Fatalf("load a: %q %v", data, err)
	}
	store.Delete("b")
	frame, err := store.Export("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Import("c", frame); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	want := []string{
		"readdir",
		"open a.ckpt.tmp", "write 18", "sync", "close", "rename a.ckpt.tmp a.ckpt", "syncdir",
		"open b.ckpt.tmp", "write 18", "sync", "close", "rename b.ckpt.tmp b.ckpt", "syncdir",
		"open a.ckpt.tmp", "write 18", "sync", "close", "rename a.ckpt.tmp a.ckpt", "syncdir",
		"read a.ckpt",
		"remove b.ckpt",
		"read a.ckpt",
		"open c.ckpt.tmp", "write 18", "sync", "close", "rename c.ckpt.tmp c.ckpt", "syncdir",
		"readdir", "remove a.ckpt", "remove c.ckpt",
	}
	if ops := dio.take(); !reflect.DeepEqual(ops, want) {
		t.Fatalf("write-through op log changed:\n got %v\nwant %v", ops, want)
	}
	// The import's write is visible now: four frames written, four accepted.
	if w, d := metric(t, reg, "writes_total"), metric(t, reg, "disk_writes_total"); w != 4 || d != 4 {
		t.Errorf("writes_total=%v disk_writes_total=%v, want 4 and 4", w, d)
	}
}

// Save, SaveLazy, Flush, Load, Export and Delete from several goroutines
// (run under -race): every read sees the newest saved value of its id, and
// afterwards every save is accounted for as written, coalesced, or still
// staged, and no lazy save was encoded twice.
func TestStageConcurrentUseReconciles(t *testing.T) {
	store, _, reg := stagedStore(t, t.TempDir(), nil)
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := store.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("job-%d", w)
			for i := 0; i < 200; i++ {
				payload := []byte(fmt.Sprintf("%s@%d", id, i))
				var err error
				if i%2 == 0 {
					err = store.Save(id, payload)
				} else {
					err = store.SaveLazy(id, func() ([]byte, error) { return payload, nil })
				}
				if err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if data, _, err := store.Load(id); err != nil || string(data) != fmt.Sprintf("%s@%d", id, i) {
					t.Errorf("load %s after save %d: %q %v", id, i, data, err)
					return
				}
				if _, err := store.Export(id); err != nil {
					t.Errorf("export %s: %v", id, err)
					return
				}
				if i%50 == 49 {
					if err := store.Delete(id); err != nil {
						t.Errorf("delete %s: %v", id, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	store.Save("left-staged", []byte("z"))
	writes, disk, coalesced := metric(t, reg, "writes_total"), metric(t, reg, "disk_writes_total"), metric(t, reg, "coalesced_total")
	if writes != 6*200+1 || writes != disk+coalesced+1 {
		t.Fatalf("writes_total %v != disk_writes_total %v + coalesced_total %v + 1 staged", writes, disk, coalesced)
	}
	// Each lazy save is read back before the next save, so each is forced once.
	if encodes := metric(t, reg, "encodes_total"); encodes != 6*100 {
		t.Fatalf("encodes_total %v for %d lazy saves", encodes, 6*100)
	}
}

// A write the disk refuses is not an accepted write: a write-through Save
// and an Import that fail count in neither the ledger nor
// rotary_ckpt_writes_total, and the first save that lands counts once.
func TestRefusedWritesAreNotAccepted(t *testing.T) {
	src, err := core.NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src.SetObs(obs.NewRegistry())
	if err := src.Save("m", []byte("migrating")); err != nil {
		t.Fatal(err)
	}
	frame, err := src.Export("m")
	if err != nil {
		t.Fatal(err)
	}

	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 3})
	store, err := core.NewCheckpointStoreIO(t.TempDir(), 0, nil, faulty)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	faulty.ForceFail(nil)
	if err := store.Save("j", []byte("state")); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("write-through save on a full disk: %v, want ErrTransient", err)
	}
	if err := store.Import("m", frame); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("import on a full disk: %v, want ErrTransient", err)
	}
	if h, got := store.Health(), metric(t, reg, "writes_total"); h.Writes != 0 || got != 0 {
		t.Fatalf("refused save and import counted: ledger %d, writes_total %v, want 0 and 0", h.Writes, got)
	}
	faulty.Clear()
	if err := store.Save("j", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if h, got := store.Health(), metric(t, reg, "writes_total"); h.Writes != 1 || got != 1 {
		t.Fatalf("landed save: ledger %d, writes_total %v, want 1 and 1", h.Writes, got)
	}
}

// Delete unlinks a frame only where one is on disk: a checkpoint that
// never left the stage, or an id never saved, costs no Remove; a flushed
// frame and one the open-time sweep retained are still removed.
func TestStageDeleteUnlinksOnlyFramesOnDisk(t *testing.T) {
	dir := t.TempDir()
	first, _, _ := stagedStore(t, dir, nil)
	first.Save("kept", []byte("k"))
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil { // the retain predicate keeps the frame
		t.Fatal(err)
	}

	store, dio, _ := stagedStore(t, dir, nil)
	store.Save("flushed", []byte("f"))
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	store.Save("staged", []byte("s"))
	dio.take()
	removes := func() []string {
		var out []string
		for _, op := range dio.take() {
			if strings.HasPrefix(op, "remove") {
				out = append(out, op)
			}
		}
		return out
	}
	for _, id := range []string{"staged", "never-saved"} {
		if err := store.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := removes(); len(got) != 0 {
		t.Fatalf("deleting checkpoints that never reached disk issued %v", got)
	}
	for _, id := range []string{"flushed", "kept"} {
		if err := store.Delete(id); err != nil {
			t.Fatal(err)
		}
		if got, want := removes(), []string{"remove " + id + ".ckpt"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("delete %s issued %v, want %v", id, got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ckpt")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s.ckpt still on disk after delete: %v", id, err)
		}
		if err := store.Delete(id); err != nil {
			t.Fatal(err)
		}
		if got := removes(); len(got) != 0 {
			t.Fatalf("second delete of %s issued %v", id, got)
		}
	}
}

// Terminal jobs whose checkpoints never reached disk issue no Remove: a
// write-behind store that is never flushed sees saves, resumes and
// retirements, and not one unlink.
func TestStageTerminalJobsUnlinkNothingUnwritten(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	store, dio, _ := stagedStore(t, t.TempDir(), nil)
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 1 // force constant deferral between the jobs
	cfg.Store = store
	exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
	for i, q := range []string{"q1", "q6", "q12"} {
		exec.Submit(buildJob(t, cat, fmt.Sprintf("j%d", i), q, 0.9, 1e6), 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range exec.Jobs() {
		if !j.Status().Terminal() {
			t.Fatalf("job %s ended %v", j.ID(), j.Status())
		}
	}
	if h := store.Health(); h.Writes == 0 {
		t.Fatal("no checkpoint was saved: the run never deferred a job")
	}
	for _, op := range dio.take() {
		if strings.HasPrefix(op, "remove") {
			t.Fatalf("a retirement unlinked a checkpoint that never reached disk: %q", op)
		}
	}
}
