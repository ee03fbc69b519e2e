package core

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rotary/internal/diskio"
	"rotary/internal/faults"
	"rotary/internal/obs"
)

// Typed checkpoint errors. Callers branch on these with errors.Is to pick
// a recovery strategy: a missing or corrupt checkpoint means the job's
// persisted state is lost (restart from scratch), a transient error that
// survives the bounded retries means the same, anything else is a real
// environmental failure that should abort the run.
var (
	// ErrNotFound reports that no checkpoint exists for the id.
	ErrNotFound = errors.New("core: checkpoint not found")
	// ErrCorrupt reports that the persisted frame failed validation
	// (magic, version, length, or CRC32). The payload is never handed to
	// a deserializer in this case.
	ErrCorrupt = errors.New("core: checkpoint corrupt")
	// ErrTransient reports a retryable I/O failure that persisted through
	// the store's bounded retries.
	ErrTransient = errors.New("core: transient checkpoint I/O error")
)

// Checkpoint wire format: a fixed header followed by the payload.
//
//	offset size  field
//	0      4     magic "RCKP"
//	4      1     format version (2)
//	5      3     reserved (zero)
//	8      4     payload length, little-endian
//	12     4     CRC32 (IEEE) of the payload, little-endian
//	16     …     payload
//
// The header lets Load reject torn, truncated, or bit-flipped files by
// checksum before any byte of the payload reaches a deserializer. The
// version names the payload encoding as well: version 1 carried JSON job
// state, version 2 carries the binary codec of internal/aqp. A frame of
// another version is ErrCorrupt, so a checkpoint directory written by
// older code costs each job a restart from scratch, never a failed run.
const (
	ckptMagic     = "RCKP"
	ckptVersion   = 2
	ckptHeaderLen = 16
)

// encodeCheckpointFrame wraps a payload in the checksummed header.
func encodeCheckpointFrame(payload []byte) []byte {
	frame := make([]byte, ckptHeaderLen+len(payload))
	copy(frame, ckptMagic)
	frame[4] = ckptVersion
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(payload))
	copy(frame[ckptHeaderLen:], payload)
	return frame
}

// decodeCheckpointFrame validates a frame and returns its payload, or an
// error wrapping ErrCorrupt. It never returns payload bytes that failed
// the checksum.
func decodeCheckpointFrame(frame []byte) ([]byte, error) {
	if len(frame) < ckptHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte file shorter than header", ErrCorrupt, len(frame))
	}
	if string(frame[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, frame[:4])
	}
	if frame[4] != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, frame[4])
	}
	n := binary.LittleEndian.Uint32(frame[8:12])
	if int(n) != len(frame)-ckptHeaderLen {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file has %d", ErrCorrupt, n, len(frame)-ckptHeaderLen)
	}
	payload := frame[ckptHeaderLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(frame[12:16]); got != want {
		return nil, fmt.Errorf("%w: CRC32 mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

// AtomicWriteFileIO publishes data at path crash-safely through dio: the
// bytes are written to a same-directory temp file, fsynced, renamed over
// the final path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old file or the new one
// — never a torn mix. Every step is checked: an error means the new bytes
// may not survive a crash, though after a failed directory sync the new
// file is already in place. The checkpoint store, the serve journal's
// segment roll and the seeded-history file publish through it. The
// pluggable disk layer lets chaos runs fail any step of the protocol: a
// failed rename or a failed cleanup remove leaves the temp file orphaned
// on the real disk, which is exactly what the open-time sweeps exist to
// reclaim.
func AtomicWriteFileIO(dio diskio.IO, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := dio.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		_ = dio.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = dio.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = dio.Remove(tmp)
		return err
	}
	if err := dio.Rename(tmp, path); err != nil {
		_ = dio.Remove(tmp)
		return err
	}
	return dio.SyncDir(filepath.Dir(path))
}

// StoreHealth snapshots a CheckpointStore's ledger: the ablation, the
// chaos suite and the recovery report read it.
type StoreHealth struct {
	// Writes counts saves and imports that returned nil; MemHits and
	// DiskHits, loads served from memory and from disk or the stage;
	// DiskBytes, the frame bytes that reached disk.
	Writes, MemHits, DiskHits int
	DiskBytes                 int64
	// Retries counts transient I/O attempts that were retried.
	Retries int
	// TransientFailures counts operations that exhausted their retries
	// and surfaced ErrTransient.
	TransientFailures int
	// CorruptDetected counts loads rejected by frame validation.
	CorruptDetected int
	// SlowIOs counts injected slow-storage events.
	SlowIOs int
	// Swept counts stale checkpoint files removed at startup.
	Swept int
}

// CheckpointStore persists the state of paused (deferred) jobs, realizing
// §VI's implementation choice: "When a job is paused, its intermediate
// states and results should be persisted either in memory or disk so that
// it can be resumed. Persisting AQP jobs in memory is more efficient …
// but may quickly saturate the memory … Therefore, we checkpoint the AQP
// jobs in disks."
//
// The store implements both sides of that trade-off as a two-tier
// materialization policy: up to MemorySlots recently paused jobs stay
// resident (resuming them is nearly free), older checkpoints spill to
// disk (resuming replays the file and pays the I/O cost the executor
// charges in virtual time). MemorySlots = 0 is the paper's disk-only
// configuration.
//
// Disk writes are crash-safe: each frame is written to a temp file,
// fsynced, and renamed over the final path, so a torn write can never
// shadow a previously valid checkpoint, and every frame carries a CRC32
// header that Load verifies before any payload byte is deserialized.
//
// A write-behind store (DeferWrites) stages the newest saved frame per id
// and writes it at its owner's Flush: twenty saves of a job between two
// flushes cost one disk write, or none if it was deleted first — and, saved
// as encoders (SaveLazy), one encode or none. Reads see the stage as the disk.
type CheckpointStore struct {
	mu  sync.Mutex
	dir string
	dio diskio.IO

	// retain, when set, exempts checkpoint ids from the startup sweep (and
	// from Close's cleanup): a durable arbiter's journal references
	// checkpoints across process restarts, and sweeping those would turn
	// every daemon restart into a from-scratch replay.
	retain func(id string) bool

	memorySlots int
	memory      map[string][]byte
	lru         *list.List               // front = most recent
	lruIdx      map[string]*list.Element // id -> element (value: id)

	// injector, when set, deals deterministic I/O faults. Retry backoff
	// and slow I/O are charged in virtual time: they accrue to
	// penaltySecs, which the executor drains into the affected job's
	// epoch cost.
	injector    *faults.Injector
	penaltySecs float64

	// deferred marks a write-behind store: staged holds the frames saved
	// since the last Flush, stageOrder their ids in first-staged order (an
	// id that has left the stage since is skipped at Flush).
	deferred   bool
	staged     map[string]*stagedFrame
	stageOrder []string

	// onDisk holds the ids with a frame file: written by this store, or
	// left by the open-time sweep (retained, or refused by the disk).
	// Delete unlinks only these — most jobs end before a flush ever writes
	// their frame.
	onDisk map[string]bool

	counts    [ckptSwept + 1]int // the ledger: events booked (frames, for ckptDiskWrite)
	diskBytes int64              // and the frame bytes that reached disk
	closed    bool
	met       *storeMetrics
}

// NewCheckpointStore creates a store spilling to dir, keeping up to
// memorySlots checkpoints resident. The directory is created if missing,
// and stale checkpoint files left behind by a previous (possibly crashed)
// run are swept away so completed workloads never leak disk across runs.
func NewCheckpointStore(dir string, memorySlots int) (*CheckpointStore, error) {
	return NewCheckpointStoreIO(dir, memorySlots, nil, nil)
}

// NewCheckpointStoreIO creates a store whose startup sweep (and
// Close-time cleanup) spares checkpoints the retain predicate claims: the
// durable serving mode passes the set of checkpoint ids its journal still
// references for non-terminal jobs, so a daemon restart can reattach each
// recovered job to its latest persisted state instead of replaying from
// scratch. A nil predicate retains nothing (the one-run scratch semantics
// of NewCheckpointStore). Every write, rename, remove, and directory sync
// the store issues goes through dio (nil means the real disk), so a
// seeded fault injector sees each one. The startup sweep also runs
// through dio — a faulty disk may refuse to release an orphan, in which
// case the next open tries again.
func NewCheckpointStoreIO(dir string, memorySlots int, retain func(id string) bool, dio diskio.IO) (*CheckpointStore, error) {
	if dio == nil {
		dio = diskio.OS{}
	}
	if err := dio.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	if memorySlots < 0 {
		memorySlots = 0
	}
	s := &CheckpointStore{
		dir:         dir,
		dio:         dio,
		retain:      retain,
		memorySlots: memorySlots,
		memory:      make(map[string][]byte),
		lru:         list.New(),
		lruIdx:      make(map[string]*list.Element),
		staged:      make(map[string]*stagedFrame),
		onDisk:      make(map[string]bool),
		met:         newStoreMetrics(nil),
	}
	swept, _ := s.sweep() // best effort: the next open sweeps again
	s.book(ckptSwept, swept)
	return s, nil
}

// SetObs moves the store's metrics onto reg (nil restores the process
// default registry) and replays the startup sweep count there. Call it
// before the store sees traffic — earlier activity stays on the previous
// registry.
func (s *CheckpointStore) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = newStoreMetrics(reg)
	s.book(ckptObsMoved, 0)
}

// sweep removes leftover *.ckpt and *.ckpt.tmp files, reporting how many
// it deleted and the first failure; a frame it leaves stays in onDisk.
// Checkpoints are scratch state scoped to one run; anything present at
// store creation (or left at Close) is an orphan — except checkpoints the
// retain predicate claims, which a durable journal still references for
// jobs a restarted daemon will reattach. Torn temp files are always
// swept: the atomic-write protocol means a .ckpt.tmp never holds the only
// copy of a valid checkpoint.
func (s *CheckpointStore) sweep() (n int, err error) {
	entries, err := s.dio.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		id, frame := strings.CutSuffix(name, ".ckpt")
		if frame && s.retain != nil && s.retain(id) {
			s.onDisk[id] = true
			continue
		} else if !frame && !strings.HasSuffix(name, ".ckpt.tmp") {
			continue
		}
		if rmErr := s.dio.Remove(filepath.Join(s.dir, name)); rmErr == nil {
			n++
		} else {
			if frame {
				s.onDisk[id] = true
			}
			if err == nil {
				err = rmErr
			}
		}
	}
	return n, err
}

// SetFaults arms the store with a deterministic fault injector (nil
// disarms it). Intended for chaos runs; production stores leave it unset.
func (s *CheckpointStore) SetFaults(in *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injector = in
}

func (s *CheckpointStore) path(id string) string {
	return filepath.Join(s.dir, id+".ckpt")
}

// DeferWrites switches the store to write-behind, for an owner with a
// durability boundary of its own to Flush at (the serving mode's journal
// step). Every other store writes through on each Save.
func (s *CheckpointStore) DeferWrites() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deferred = true
}

// stagedFrame is one id's entry in the write-behind stage: the payload's
// bytes, or the encoder that produces them when a Flush, Load or Export first
// needs them. A pending encoder reads live job state, so it is valid only
// while that state is unchanged. The AQP executor changes a job's query state
// in exactly three places — a finishing epoch's batches, resumeJob's Restore,
// scratchRestart's Restore — each followed in the same call by a new save or
// a Remove of the id, or preceded by the Load that forces the entry.
type stagedFrame struct {
	data   []byte
	encode func() ([]byte, error) // non-nil until forced
}

// payload returns the frame's bytes, first running a pending encoder (once:
// the frame keeps the bytes) on the caller's goroutine. staged says the frame
// sits in the stage, whose gauge counts encoded bytes only.
func (s *CheckpointStore) payload(id string, f *stagedFrame, staged bool) ([]byte, error) {
	if f.encode != nil {
		data, err := f.encode()
		if err != nil {
			return nil, fmt.Errorf("core: encode checkpoint %s: %w", id, err)
		}
		f.data, f.encode = data, nil
		s.book(ckptEncoded, 1)
		if staged {
			s.met.stagedBytes.Add(float64(len(data)))
		}
	}
	return f.data, nil
}

// Save persists a job's checkpoint. The newest checkpoints stay in the
// memory tier; the eviction spills to disk. A write-behind store stages
// the frame, replacing any frame of the same id staged since the last
// Flush. Only a save that returns nil counts as accepted.
func (s *CheckpointStore) Save(id string, data []byte) error {
	return s.save(id, stagedFrame{data: data})
}

// SaveLazy is Save of the bytes encode will return. A write-behind store
// calls encode only if a Flush, Load or Export needs the frame while it is
// still staged, so encode must stay valid until the id's next save or delete
// (see stagedFrame) and must not call the store; every other store calls it now.
func (s *CheckpointStore) SaveLazy(id string, encode func() ([]byte, error)) error {
	return s.save(id, stagedFrame{encode: encode})
}

func (s *CheckpointStore) save(id string, f stagedFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: save checkpoint %s: store closed", id)
	}
	if !s.deferred || s.memorySlots > 0 {
		if _, err := s.payload(id, &f, false); err != nil {
			return err
		}
	}
	var err error
	switch {
	case s.memorySlots > 0:
		if el, ok := s.lruIdx[id]; ok {
			s.lru.MoveToFront(el)
		} else {
			s.lruIdx[id] = s.lru.PushFront(id)
		}
		s.memory[id] = f.data
		s.spill()
	case !s.deferred:
		err = s.writeFile(id, f.data)
	default:
		if !s.dropStaged(id) {
			s.stageOrder = append(s.stageOrder, id)
		}
		s.staged[id] = &f
		s.met.stagedBytes.Add(float64(len(f.data)))
	}
	if err != nil {
		return err
	}
	s.book(ckptAccepted, 1)
	return nil
}

// spill writes the least recently saved checkpoints to disk until the
// memory tier is back within its slots. An entry leaves memory only once
// its file is written: a spill the disk refuses keeps it resident (over
// the slot count) for the next save to retry, and is no failure of the
// save that triggered it, whose own checkpoint is safe in memory.
func (s *CheckpointStore) spill() {
	for s.lru.Len() > s.memorySlots {
		back := s.lru.Back()
		evicted := back.Value.(string)
		if s.writeFile(evicted, s.memory[evicted]) != nil {
			return
		}
		s.lru.Remove(back)
		delete(s.lruIdx, evicted)
		delete(s.memory, evicted)
	}
}

// dropStaged discards id's staged frame, if any: a newer save or a delete
// overtook it before it cost a disk write — or, still pending, an encode.
func (s *CheckpointStore) dropStaged(id string) bool {
	old, ok := s.staged[id]
	if ok {
		delete(s.staged, id)
		s.met.stagedBytes.Add(-float64(len(old.data)))
		s.book(ckptCoalesced, 1)
	}
	return ok
}

// Flush forces and writes the staged frames, in first-staged order, on the
// caller's goroutine. A frame whose write fails (after the usual bounded
// retries) stays staged as the bytes it was forced to — still served to Load
// and Export, the previous file still intact — for the next Flush to retry;
// the first such error is returned. Retry backoff is not billed: no job is
// running the write, and penaltySecs would charge it to whichever job drains it.
func (s *CheckpointStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func(p float64) { s.penaltySecs = p }(s.penaltySecs)
	var firstErr error
	failed := s.stageOrder[:0]
	for _, id := range s.stageOrder {
		f, ok := s.staged[id]
		if !ok {
			continue
		}
		data, err := s.payload(id, f, true)
		if err == nil {
			err = s.writeFile(id, data)
		}
		if err != nil {
			s.book(ckptFlushError, 1)
			failed = append(failed, id)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		delete(s.staged, id)
		s.met.stagedBytes.Add(-float64(len(data)))
	}
	s.stageOrder = failed
	return firstErr
}

// A failed checkpoint I/O attempt is retried up to maxRetries times;
// retry n, counting from 0, waits 2ⁿ × retryBackoffSecs of virtual time.
const (
	maxRetries       = 3
	retryBackoffSecs = 1.0
)

// retry runs attempt until it returns nil or has failed maxRetries+1
// times, booking each retry and the final failure and charging the
// backoff to penaltySecs. It returns the last failure.
func (s *CheckpointStore) retry(attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return nil
		}
		if n == maxRetries {
			s.book(ckptTransient, 1)
			return err
		}
		s.book(ckptRetry, 1)
		s.penaltySecs += retryBackoffSecs * float64(int(1)<<n)
	}
}

// slowIO charges one injected slow-storage event.
func (s *CheckpointStore) slowIO() {
	s.book(ckptSlowIO, 1)
	s.penaltySecs += s.injector.SlowDelaySecs()
}

// writeFile frames the payload and writes it (Save, spill, Flush), with
// the store's fault injector armed on every attempt.
func (s *CheckpointStore) writeFile(id string, data []byte) error {
	return s.writeFrame(id, encodeCheckpointFrame(data), s.injector)
}

// writeFrame is the one place a frame reaches disk (Save, Flush, Import),
// under one retry loop. Each attempt draws in's fault first (Import passes
// nil): an injected transient fails it before any I/O; injected corruption
// flips one payload byte in a copy after the CRC was computed, so the
// damage reaches disk undetected and Load's checksum catches it — the
// failure a real bit-rot or torn DMA produces; slow I/O is charged in
// virtual time. Then AtomicWriteFileIO writes the frame. Every failure,
// injected or real, gets the same bounded retries, then surfaces as
// ErrTransient — the typed error the executor answers with a scratch
// restart. An ENOSPC blip therefore costs the affected job a replay, not
// the whole run: the previous checkpoint (if any) is still intact under
// the final path.
func (s *CheckpointStore) writeFrame(id string, frame []byte, in *faults.Injector) error {
	ioStart := time.Now()
	err := s.retry(func() error {
		out := frame
		switch in.WriteFault() {
		case faults.Transient:
			return ErrTransient
		case faults.Corrupt:
			out = append([]byte(nil), frame...)
			out[ckptHeaderLen+(len(frame)-ckptHeaderLen)/2] ^= 0xFF
		case faults.Slow:
			s.slowIO()
		}
		if err := AtomicWriteFileIO(s.dio, s.path(id), out); err != nil {
			// The rename may have happened before a later step failed, so
			// the frame may be on disk: Delete must try to unlink it (a
			// frame that never landed costs it one ENOENT).
			s.onDisk[id] = true
			return err
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, ErrTransient) {
			err = fmt.Errorf("%w (%v)", ErrTransient, err)
		}
		return fmt.Errorf("core: write checkpoint %s: %w", id, err)
	}
	s.onDisk[id] = true
	s.book(ckptDiskWrite, len(frame))
	s.met.writeLatency.Observe(time.Since(ioStart).Seconds())
	return nil
}

// Load retrieves a checkpoint, reporting whether it was served from the
// memory tier (fromMemory), which the executor translates into a cheap
// resume instead of a disk replay. A missing file returns ErrNotFound; a
// frame that fails validation returns ErrCorrupt without ever exposing
// the payload; a transient fault that survives the bounded retries
// returns ErrTransient.
func (s *CheckpointStore) Load(id string) (data []byte, fromMemory bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("core: load checkpoint %s: store closed", id)
	}
	if d, ok := s.memory[id]; ok {
		s.book(ckptMemHit, 1)
		s.lru.MoveToFront(s.lruIdx[id])
		return d, true, nil
	}
	if f, ok := s.staged[id]; ok { // stands in for its file: billed as the disk replay it replaces
		d, err := s.payload(id, f, true)
		if err != nil {
			return nil, false, err
		}
		s.book(ckptDiskHit, 1)
		return d, false, nil
	}
	if err := s.retry(func() error {
		switch s.injector.ReadFault() {
		case faults.Transient:
			return ErrTransient
		case faults.Slow:
			s.slowIO()
		}
		return nil
	}); err != nil {
		return nil, false, fmt.Errorf("core: load checkpoint %s: %w", id, err)
	}
	ioStart := time.Now()
	frame, err := s.dio.ReadFile(s.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, fmt.Errorf("core: load checkpoint %s: %w", id, ErrNotFound)
		}
		return nil, false, fmt.Errorf("core: load checkpoint %s: %w", id, err)
	}
	s.met.readLatency.Observe(time.Since(ioStart).Seconds())
	payload, err := decodeCheckpointFrame(frame)
	if err != nil {
		s.book(ckptCorrupt, 1)
		return nil, false, fmt.Errorf("core: load checkpoint %s: %w", id, err)
	}
	s.book(ckptDiskHit, 1)
	return payload, false, nil
}

// Export reads a checkpoint as a validated CRC-framed blob, ready to be
// Imported into another store's namespace — the transfer primitive behind
// checkpoint-carried job migration between arbiter shards. A checkpoint
// still resident in the memory tier or the stage is framed on the fly, so
// the export is durable-equivalent regardless of where it was held. The
// source copy is left in place; the caller removes it (via the executor's
// Detach) once the migration commits.
func (s *CheckpointStore) Export(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: export checkpoint %s: store closed", id)
	}
	if d, ok := s.memory[id]; ok {
		return encodeCheckpointFrame(d), nil
	}
	if f, ok := s.staged[id]; ok {
		d, err := s.payload(id, f, true)
		if err != nil {
			return nil, err
		}
		return encodeCheckpointFrame(d), nil
	}
	frame, err := s.dio.ReadFile(s.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("core: export checkpoint %s: %w", id, ErrNotFound)
		}
		return nil, fmt.Errorf("core: export checkpoint %s: %w", id, err)
	}
	if _, err := decodeCheckpointFrame(frame); err != nil {
		s.book(ckptCorrupt, 1)
		return nil, fmt.Errorf("core: export checkpoint %s: %w", id, err)
	}
	return frame, nil
}

// Import publishes an exported frame under this store's namespace,
// validating the frame before any byte lands on disk. The write goes
// straight to disk — never the stage — through the same retried, metered
// write as a save, and counts as one: a migrated job's reattach target
// must be durable before the receiving shard journals the migration as
// committed. Retry backoff is not billed (see Flush).
func (s *CheckpointStore) Import(id string, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: import checkpoint %s: store closed", id)
	}
	if _, err := decodeCheckpointFrame(frame); err != nil {
		return fmt.Errorf("core: import checkpoint %s: %w", id, err)
	}
	defer func(p float64) { s.penaltySecs = p }(s.penaltySecs)
	if err := s.writeFrame(id, frame, nil); err != nil {
		return fmt.Errorf("core: import checkpoint %s: %w", id, err)
	}
	s.book(ckptAccepted, 1)
	return nil
}

// TakePenaltySecs drains the virtual-time cost accrued by retry backoffs
// and slow-storage events since the last drain. The executor charges it
// to the job whose I/O incurred it.
func (s *CheckpointStore) TakePenaltySecs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.penaltySecs
	s.penaltySecs = 0
	return p
}

// Delete removes a job's checkpoint from both tiers and the stage, and
// unlinks its frame file only if one is on disk (onDisk): a job whose
// saves never left the memory tier or the stage costs no syscall.
// Deleting an id with no checkpoint is a no-op.
func (s *CheckpointStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropStaged(id)
	if el, ok := s.lruIdx[id]; ok {
		s.lru.Remove(el)
		delete(s.lruIdx, id)
		delete(s.memory, id)
	}
	if !s.onDisk[id] {
		return nil
	}
	if err := s.dio.Remove(s.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: delete checkpoint %s: %w", id, err)
	}
	delete(s.onDisk, id)
	return nil
}

// Close releases the store: the memory tier and the stage are dropped and
// every remaining on-disk checkpoint is deleted (checkpoints are scratch
// state scoped to one run — terminal jobs already removed theirs; whatever
// is left belongs to jobs that will never resume). Checkpoints claimed by
// the retain predicate survive: a journal-referenced job may still
// reattach to them after a restart. Nothing resident is written out first —
// Close leaves the disk as abandoning the store (a kill -9) would — so a
// durable owner flushes at its own boundary and uses MemorySlots = 0.
// Operations after Close fail. Close is idempotent.
func (s *CheckpointStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for id := range s.memory {
		delete(s.memory, id)
	}
	s.lru.Init()
	s.lruIdx = make(map[string]*list.Element)
	s.staged, s.stageOrder = nil, nil
	s.met.stagedBytes.Set(0)
	if _, err := s.sweep(); err != nil {
		return fmt.Errorf("core: close checkpoint store: %w", err)
	}
	return nil
}

// Health snapshots the store's ledger.
func (s *CheckpointStore) Health() StoreHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.counts
	return StoreHealth{Writes: n[ckptAccepted], MemHits: n[ckptMemHit], DiskHits: n[ckptDiskHit],
		DiskBytes: s.diskBytes, Retries: n[ckptRetry], TransientFailures: n[ckptTransient],
		CorruptDetected: n[ckptCorrupt], SlowIOs: n[ckptSlowIO], Swept: n[ckptSwept]}
}

// book counts one store event in the ledger and in its rotary_ckpt_*
// counter: n of them (1, or the files a sweep removed), or for
// ckptDiskWrite one frame of n bytes. As their only writer (the
// staged-bytes gauge and the wall-clock latency histograms are levels
// and timings), no event can be counted in one and not the other.
func (s *CheckpointStore) book(e ckptEvent, n int) {
	switch e {
	case ckptObsMoved: // the new registry starts at the ledger's sweep count
		s.met.count[ckptSwept].Add(int64(s.counts[ckptSwept]))
		return
	case ckptDiskWrite:
		s.diskBytes += int64(n)
		s.met.frameBytes.Observe(float64(n))
		n = 1
	}
	s.counts[e] += n
	s.met.count[e].Add(int64(n))
}
