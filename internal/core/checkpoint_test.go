package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/tpch"
)

func TestCheckpointStoreTiers(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} { // "a" spills to disk
		if err := store.Save(id, []byte("state-"+id)); err != nil {
			t.Fatal(err)
		}
	}
	if data, fromMem, err := store.Load("c"); err != nil || !fromMem || string(data) != "state-c" {
		t.Fatalf("load c: %q mem=%v err=%v", data, fromMem, err)
	}
	if data, fromMem, err := store.Load("a"); err != nil || fromMem || string(data) != "state-a" {
		t.Fatalf("load a: %q mem=%v err=%v (want disk tier)", data, fromMem, err)
	}
	if h := store.Health(); h.Writes != 3 || h.MemHits != 1 || h.DiskHits != 1 || h.DiskBytes == 0 {
		t.Fatalf("stats = %+v", h)
	}
	if err := store.Delete("a"); err != nil {
		t.Fatalf("delete a: %v", err)
	}
	if _, _, err := store.Load("a"); err == nil {
		t.Error("loaded a removed checkpoint")
	}
}

func TestCheckpointStoreDiskOnly(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, fromMem, err := store.Load("x"); err != nil || fromMem {
		t.Fatalf("disk-only store served from memory (err=%v)", err)
	}
}

func TestCheckpointStoreUpdateSameID(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("j", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("j", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, _, err := store.Load("j")
	if err != nil || string(data) != "v2" {
		t.Fatalf("load = %q, %v", data, err)
	}
}

// A contended workload with real persistence: deferred jobs' states are
// actually serialized, dropped, and restored, and the run must produce
// the same outcomes as an identical run without persistence — proving the
// checkpoint round trip is lossless under arbitration.
func TestExecutorWithRealCheckpointsMatchesInMemory(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	run := func(store *core.CheckpointStore) []*core.AQPJob {
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 1 // force constant deferral between two jobs
		cfg.Store = store
		// Zero the virtual resume cost so both runs share identical
		// timing and differ only in whether state is really persisted.
		cfg.CheckpointBaseSecs = 0
		cfg.CheckpointSecsPerMB = 0
		exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
		a := buildJob(t, cat, "a", "q1", 0.9, 1e6)
		b := buildJob(t, cat, "b", "q12", 0.9, 1e6)
		exec.Submit(a, 0)
		exec.Submit(b, 0)
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		return exec.Jobs()
	}
	store, err := core.NewCheckpointStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	withStore := run(store)
	inMemory := run(nil)
	if h := store.Health(); h.Writes == 0 || h.MemHits+h.DiskHits == 0 {
		t.Fatalf("store unused: writes=%d resumes=%d", h.Writes, h.MemHits+h.DiskHits)
	}
	for i := range withStore {
		a, b := withStore[i], inMemory[i]
		if a.Status() != b.Status() || a.Epochs() != b.Epochs() ||
			a.StopAccuracy() != b.StopAccuracy() || a.EndTime() != b.EndTime() {
			t.Errorf("job %s diverged with persistence: %v/%d/%v/%v vs %v/%d/%v/%v",
				a.ID(), a.Status(), a.Epochs(), a.StopAccuracy(), a.EndTime(),
				b.Status(), b.Epochs(), b.StopAccuracy(), b.EndTime())
		}
	}
}

// Memory-tier resumes must be cheaper in virtual time than disk replays.
func TestMemoryTierResumesAreCheaper(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	run := func(slots int) float64 {
		store, err := core.NewCheckpointStore(t.TempDir(), slots)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 1
		cfg.Store = store
		cfg.CheckpointBaseSecs = 10 // make replay cost visible
		exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
		exec.Submit(buildJob(t, cat, "a", "q1", 0.9, 1e6), 0)
		exec.Submit(buildJob(t, cat, "b", "q12", 0.9, 1e6), 0)
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		return exec.Engine().Now().Seconds()
	}
	memTier := run(4) // both jobs stay resident
	diskOnly := run(0)
	if memTier >= diskOnly {
		t.Errorf("memory-tier makespan %.0fs not below disk-only %.0fs", memTier, diskOnly)
	}
}

// A corrupted persisted checkpoint must be caught by the frame checksum
// (never deserialized) and recovered by a clean from-scratch restart, with
// the run finishing on the same results as an uncorrupted one.
func TestCorruptCheckpointDetectedAndRestartedCleanly(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	run := func(corrupt bool) ([]*core.AQPJob, core.StoreHealth, core.RecoveryStats) {
		dir := t.TempDir()
		store, err := core.NewCheckpointStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 1 // force constant deferral between two jobs
		cfg.Store = store
		var sched core.AQPScheduler = fifoAQP{reserve: true}
		if corrupt {
			sched = &corruptingFifo{dir: dir}
		}
		exec := core.NewAQPExecutor(cfg, sched, nil)
		exec.Submit(buildJob(t, cat, "a", "q1", 0.9, 1e6), 0)
		exec.Submit(buildJob(t, cat, "b", "q12", 0.9, 1e6), 0)
		if err := exec.Run(); err != nil {
			t.Fatalf("run (corrupt=%v): %v", corrupt, err)
		}
		return exec.Jobs(), store.Health(), exec.Recovery()
	}
	faulty, health, rec := run(true)
	clean, _, _ := run(false)
	if health.CorruptDetected == 0 {
		t.Fatal("corrupted checkpoint was never detected by the checksum")
	}
	if rec.ScratchRestarts == 0 {
		t.Fatal("no from-scratch restart after corruption")
	}
	for i := range faulty {
		a, b := faulty[i], clean[i]
		if a.Status() != b.Status() || a.StopAccuracy() != b.StopAccuracy() {
			t.Errorf("job %s diverged after corruption recovery: %v/%v vs %v/%v",
				a.ID(), a.Status(), a.StopAccuracy(), b.Status(), b.StopAccuracy())
		}
		if got, want := a.Query().Snapshot(), b.Query().Snapshot(); !snapshotsEqual(got.Groups, want.Groups) {
			t.Errorf("job %s final aggregates diverged after corruption recovery", a.ID())
		}
	}
}

// corruptingFifo behaves like fifoAQP but trashes every persisted
// checkpoint it sees — once. The first resume after that must detect the
// damage via the checksum and restart the job from scratch.
type corruptingFifo struct {
	dir  string
	done bool
}

func (c *corruptingFifo) Name() string { return "corruptor" }

func (c *corruptingFifo) Assign(ctx *core.AQPContext) []core.AQPGrant {
	if !c.done {
		entries, _ := os.ReadDir(c.dir)
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".ckpt" {
				_ = os.WriteFile(filepath.Join(c.dir, e.Name()), []byte("{broken"), 0o644)
				c.done = true
			}
		}
	}
	return fifoAQP{reserve: true}.Assign(ctx)
}

func snapshotsEqual(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for g, va := range a {
		vb, ok := b[g]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// Load of an id that was never saved reports ErrNotFound.
func TestCheckpointStoreLoadMissingIsErrNotFound(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("load of missing id = %v, want ErrNotFound", err)
	}
}

// A truncated or bit-flipped frame must decode as ErrCorrupt and count in
// the health stats, without the payload ever reaching a caller.
func TestCheckpointStoreDetectsTamperedFrames(t *testing.T) {
	dir := t.TempDir()
	store, err := core.NewCheckpointStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("j", []byte(`{"offset":42}`)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "j.ckpt")
	tamper := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bad-magic":  func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bit-flip":   func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"bad-length": func(b []byte) []byte { b[8] ^= 0xFF; return b },
		// A frame valid in every other respect from the version-1 (JSON
		// payload) format: rejected on the version byte alone.
		"old-version": func(b []byte) []byte { b[4] = 1; return b },
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for name, fn := range tamper {
		if err := os.WriteFile(path, fn(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if data, _, err := store.Load("j"); !errors.Is(err, core.ErrCorrupt) {
			t.Errorf("%s frame: load = (%q, %v), want ErrCorrupt", name, data, err)
		} else {
			detected++
		}
	}
	if h := store.Health(); h.CorruptDetected != detected {
		t.Errorf("health counted %d corruptions, want %d", h.CorruptDetected, detected)
	}
}

// The LRU memory tier must evict (and spill) the least recently used
// checkpoint: touching an old entry via Load keeps it resident.
func TestCheckpointStoreLRUEvictionOrder(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := store.Save(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, fromMem, _ := store.Load("a"); !fromMem { // refresh "a": now b is LRU
		t.Fatal("a not resident before eviction")
	}
	if err := store.Save("c", []byte("c")); err != nil { // evicts b, not a
		t.Fatal(err)
	}
	if _, fromMem, err := store.Load("a"); err != nil || !fromMem {
		t.Errorf("recently used a was evicted (mem=%v err=%v)", fromMem, err)
	}
	if _, fromMem, err := store.Load("b"); err != nil || fromMem {
		t.Errorf("LRU entry b not spilled to disk (mem=%v err=%v)", fromMem, err)
	}
}

// A spill the disk refuses keeps the evicted checkpoint resident and
// charges no error to the save that triggered it; once the disk recovers,
// the next save spills it and both checkpoints load.
func TestRefusedSpillKeepsCheckpoint(t *testing.T) {
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 3})
	store, err := core.NewCheckpointStoreIO(t.TempDir(), 1, nil, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a", []byte("state-a")); err != nil {
		t.Fatal(err)
	}
	faulty.ForceFail(nil)
	if err := store.Save("b", []byte("state-b")); err != nil {
		t.Fatalf("save b while a's spill is refused: %v, want nil", err)
	}
	faulty.Clear()
	for _, id := range []string{"a", "b"} {
		if data, _, err := store.Load(id); err != nil || string(data) != "state-"+id {
			t.Errorf("load %s: %q, %v", id, data, err)
		}
	}
	if h := store.Health(); h.Writes != 2 || h.TransientFailures != 1 {
		t.Errorf("health %+v, want 2 accepted saves and the one refused spill", h)
	}
	if err := store.Save("c", []byte("state-c")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if _, fromMem, err := store.Load(id); err != nil || fromMem {
			t.Errorf("load %s after the disk recovered: fromMemory=%v err=%v, want spilled to disk", id, fromMem, err)
		}
	}
}

// Stale checkpoint files from a previous (crashed) run are swept away
// when a store opens over the directory.
func TestCheckpointStoreSweepsStaleFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"old1.ckpt", "old2.ckpt", "torn.ckpt.tmp", "keep.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := core.NewCheckpointStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h := store.Health(); h.Swept != 3 {
		t.Errorf("swept %d stale files, want 3", h.Swept)
	}
	if _, _, err := store.Load("old1"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("stale checkpoint survived the sweep: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.txt")); err != nil {
		t.Errorf("sweep removed a non-checkpoint file: %v", err)
	}
}

// A rename that fails mid-write (ENOSPC on the directory) orphans the
// temp file: the atomic-write protocol never moves a partial file into
// place, and with Remove also failing the cleanup path can't reclaim
// it either. The next store opened over the directory must sweep the
// orphan so torn writes never accumulate across restarts.
func TestCheckpointSweepReclaimsOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{
		Seed:           5,
		RenameFailRate: 1, // atomic-write publish step always fails...
		RemoveFailRate: 1, // ...and so does the tmp-file cleanup
	})
	store, err := core.NewCheckpointStoreIO(dir, 0, nil, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("torn", []byte("half-written")); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("save with failing rename: got %v, want ErrTransient", err)
	}
	store.Close()

	orphans := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatalf("failed rename left no orphaned .tmp file; entries: %v", entries)
	}

	// A fresh store over the same directory (clean I/O) sweeps the orphan.
	clean, err := core.NewCheckpointStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if h := clean.Health(); h.Swept < 1 {
		t.Fatalf("sweep reclaimed %d files, want >= %d orphaned temps", h.Swept, orphans)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("orphaned temp %s survived the sweep", e.Name())
		}
	}
}

// Delete removes both tiers; Close drops everything and fails later ops.
func TestCheckpointStoreDeleteAndClose(t *testing.T) {
	dir := t.TempDir()
	store, err := core.NewCheckpointStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"mem", "disk"} { // "mem" resident, "disk" spilled
		if err := store.Save(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Delete("disk"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load("disk"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("deleted checkpoint still loads: %v", err)
	}
	if err := store.Delete("never-existed"); err != nil {
		t.Errorf("deleting a missing id: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".ckpt" {
			t.Errorf("close leaked checkpoint file %s", e.Name())
		}
	}
	if err := store.Save("late", []byte("x")); err == nil {
		t.Error("save succeeded on a closed store")
	}
	if _, _, err := store.Load("late"); err == nil {
		t.Error("load succeeded on a closed store")
	}
}

// Concurrent Save/Load/Delete across goroutines must be race-clean (run
// under -race) and every readback must be either the saved bytes or a
// clean ErrNotFound after deletion.
func TestCheckpointStoreConcurrentUse(t *testing.T) {
	store, err := core.NewCheckpointStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("job-%d", w)
			payload := []byte(fmt.Sprintf(`{"worker":%d}`, w))
			for i := 0; i < 50; i++ {
				if err := store.Save(id, payload); err != nil {
					t.Errorf("save %s: %v", id, err)
					return
				}
				data, _, err := store.Load(id)
				if err != nil {
					t.Errorf("load %s: %v", id, err)
					return
				}
				if string(data) != string(payload) {
					t.Errorf("load %s = %q, want %q", id, data, payload)
					return
				}
			}
			if err := store.Delete(id); err != nil {
				t.Errorf("delete %s: %v", id, err)
			}
		}(w)
	}
	wg.Wait()
	if h := store.Health(); h.Writes != 8*50 || h.MemHits+h.DiskHits != 8*50 {
		t.Errorf("stats lost operations: writes=%d resumes=%d", h.Writes, h.MemHits+h.DiskHits)
	}
}
