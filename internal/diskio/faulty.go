package diskio

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"

	"rotary/internal/sim"
)

// InjectedError wraps every fault Faulty deals, so tests and invariant
// checkers can distinguish injected faults from real environmental
// failures while errors.Is still matches the underlying errno
// (syscall.ENOSPC, syscall.EIO) through Unwrap.
type InjectedError struct {
	Op    string
	Path  string
	Errno error
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("diskio: injected %s fault on %s: %v", e.Op, e.Path, e.Errno)
}

// Unwrap exposes the simulated errno.
func (e *InjectedError) Unwrap() error { return e.Errno }

// IsInjected reports whether err originated from a Faulty injector.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// FaultConfig sets the disk-fault mix. All rates are per-opportunity
// probabilities in [0, 1): each write, sync, rename, and remove draws
// once. A drawn fault can extend into a burst (BurstOps), which
// models an ENOSPC episode — a full disk stays full for a while — and
// is what makes degraded-mode healing meaningful: the journal must
// ride the burst out, not just retry once.
type FaultConfig struct {
	// Seed drives every draw; equal seeds replay identical fault
	// schedules against identical operation sequences.
	Seed uint64
	// WriteFailRate is the probability a write fails with ENOSPC after
	// landing only a short prefix of the buffer — the torn-frame
	// producer.
	WriteFailRate float64
	// SyncFailRate is the probability an fsync fails with EIO.
	SyncFailRate float64
	// RenameFailRate is the probability a rename (the atomic-write
	// commit point) fails with ENOSPC.
	RenameFailRate float64
	// RemoveFailRate is the probability a remove fails with EIO —
	// the orphaned-temp-file producer.
	RemoveFailRate float64
	// BurstOps extends a drawn fault over the following BurstOps
	// faultable operations (0 = every fault is a one-shot blip).
	BurstOps int
}

// Stats counts the faults a Faulty has dealt.
type Stats struct {
	Ops         int64
	WriteFails  int64
	ShortWrites int64
	SyncFails   int64
	RenameFails int64
	RemoveFails int64
	OpenFails   int64
}

// Faulty wraps an inner IO with seeded fault injection. Reads
// (ReadFile, ReadDir) always pass through: replay and verification see
// the disk as it really is; only the mutating operations that durable
// protocols depend on can fail. Beyond the seeded rates, scripted
// control (ForceFail / Clear / SetEnabled) lets a harness open and
// close deterministic fault windows — the heal proofs need a fault
// that provably clears.
type Faulty struct {
	inner IO

	mu       sync.Mutex
	cfg      FaultConfig
	rng      *sim.Rand
	stats    Stats
	burst    int   // remaining ops in the current fault burst
	burstErr error // errno the burst keeps dealing
	forced   error // scripted: every mutating op fails with this
	disabled bool  // scripted: seeded draws suspended
}

// NewFaulty wraps inner (nil means OS) with the seeded fault mix.
func NewFaulty(inner IO, cfg FaultConfig) *Faulty {
	if inner == nil {
		inner = OS{}
	}
	return &Faulty{
		inner: inner,
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed ^ 0xd15c10),
	}
}

// ForceFail makes every subsequent mutating operation fail with errno
// (nil selects ENOSPC) until Clear. This is the scripted fault window
// the heal tests and the torture harness use: deterministic onset,
// deterministic clearing.
func (f *Faulty) ForceFail(errno error) {
	if f == nil {
		return
	}
	if errno == nil {
		errno = syscall.ENOSPC
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forced = errno
}

// Clear ends a scripted fault window and any in-flight burst.
func (f *Faulty) Clear() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forced = nil
	f.burst = 0
	f.burstErr = nil
}

// SetEnabled suspends (false) or resumes (true) the seeded draws.
// Scripted ForceFail windows are unaffected.
func (f *Faulty) SetEnabled(on bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disabled = !on
	if !on {
		f.burst = 0
		f.burstErr = nil
	}
}

// Stats returns the counts of faults dealt so far.
func (f *Faulty) Stats() Stats {
	if f == nil {
		return Stats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// draw decides whether one mutating operation faults, honoring the
// scripted window, then an active burst, then the seeded rate. It
// returns the errno to deal, or nil.
func (f *Faulty) draw(rate float64, errno error) error {
	f.stats.Ops++
	if f.forced != nil {
		return f.forced
	}
	if f.burst > 0 {
		f.burst--
		return f.burstErr
	}
	if f.disabled || rate <= 0 {
		return nil
	}
	if f.rng.Float64() >= rate {
		return nil
	}
	if f.cfg.BurstOps > 0 {
		f.burst = f.cfg.BurstOps
		f.burstErr = errno
	}
	return errno
}

// OpenFile implements IO. Only write-capable opens can fault, and only
// inside a scripted window or a burst (opens draw no seeded fault of
// their own, but do spend burst ops): read opens pass through so replay
// always sees the real bytes.
func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		f.mu.Lock()
		errno := f.draw(0, syscall.ENOSPC)
		if errno != nil {
			f.stats.OpenFails++
		}
		f.mu.Unlock()
		if errno != nil {
			return nil, &InjectedError{Op: "open", Path: name, Errno: errno}
		}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{name: name, inner: inner, f: f}, nil
}

// ReadFile implements IO (passthrough).
func (f *Faulty) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// ReadDir implements IO (passthrough).
func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// Rename implements IO. A faulted rename never moves the file: the
// commit point of the atomic-write protocol simply does not happen,
// leaving the temp file orphaned — exactly the ENOSPC failure mode the
// open-time sweep exists for.
func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	errno := f.draw(f.cfg.RenameFailRate, syscall.ENOSPC)
	if errno != nil {
		f.stats.RenameFails++
	}
	f.mu.Unlock()
	if errno != nil {
		return &InjectedError{Op: "rename", Path: newpath, Errno: errno}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements IO.
func (f *Faulty) Remove(name string) error {
	f.mu.Lock()
	errno := f.draw(f.cfg.RemoveFailRate, syscall.EIO)
	if errno != nil {
		f.stats.RemoveFails++
	}
	f.mu.Unlock()
	if errno != nil {
		return &InjectedError{Op: "remove", Path: name, Errno: errno}
	}
	return f.inner.Remove(name)
}

// Truncate implements IO (passthrough: truncation is recovery's tool,
// and recovery faults are modeled at open/write time).
func (f *Faulty) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// MkdirAll implements IO (passthrough).
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// SyncDir implements IO. Directory fsyncs share the sync fault rate:
// a disk that fails file fsyncs fails directory fsyncs too.
func (f *Faulty) SyncDir(dir string) error {
	f.mu.Lock()
	errno := f.draw(f.cfg.SyncFailRate, syscall.EIO)
	if errno != nil {
		f.stats.SyncFails++
	}
	f.mu.Unlock()
	if errno != nil {
		return &InjectedError{Op: "syncdir", Path: dir, Errno: errno}
	}
	return f.inner.SyncDir(dir)
}

// faultyFile interposes on one open file's writes and fsyncs.
type faultyFile struct {
	name  string
	inner File
	f     *Faulty
}

// Write deals ENOSPC with a short prefix actually landing on the inner
// file: the torn-frame scenario a real full disk produces, so recovery
// code sees genuine partial bytes, not a clean miss.
func (ff *faultyFile) Write(p []byte) (int, error) {
	ff.f.mu.Lock()
	errno := ff.f.draw(ff.f.cfg.WriteFailRate, syscall.ENOSPC)
	var short int
	if errno != nil {
		ff.f.stats.WriteFails++
		if len(p) > 1 {
			short = ff.f.rng.IntN(len(p))
		}
		if short > 0 {
			ff.f.stats.ShortWrites++
		}
	}
	ff.f.mu.Unlock()
	if errno != nil {
		n := 0
		if short > 0 {
			n, _ = ff.inner.Write(p[:short])
		}
		return n, &InjectedError{Op: "write", Path: ff.name, Errno: errno}
	}
	return ff.inner.Write(p)
}

// Sync deals EIO failures.
func (ff *faultyFile) Sync() error {
	ff.f.mu.Lock()
	errno := ff.f.draw(ff.f.cfg.SyncFailRate, syscall.EIO)
	if errno != nil {
		ff.f.stats.SyncFails++
	}
	ff.f.mu.Unlock()
	if errno != nil {
		return &InjectedError{Op: "sync", Path: ff.name, Errno: errno}
	}
	return ff.inner.Sync()
}

// Close passes through: close faults add no crash-safety scenario the
// sync and write faults do not already cover.
func (ff *faultyFile) Close() error { return ff.inner.Close() }
