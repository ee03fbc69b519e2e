// Package faults provides deterministic fault injection for chaos-testing
// the Rotary executors. An Injector is driven by the same seeded PRNG
// substrate as the rest of the simulation (internal/sim), so every chaos
// run — which worker crashes when, which checkpoint write is corrupted,
// which read stalls — replays bit-for-bit from a single seed.
//
// The injector is consulted at well-defined decision points by the
// executors and the checkpoint store:
//
//   - EpochCrash: once per started epoch, may interrupt it mid-flight
//     (a worker process or GPU device crash);
//   - WriteFault / ReadFault: once per checkpoint I/O attempt, may inject
//     a transient error (retryable), corrupted bytes (write only,
//     detected by checksum at read), or a slow-storage event;
//   - RepairSecs / SlowDelaySecs: draw the virtual-time cost of a device
//     repair or a slow I/O op.
//
// All methods are safe on a nil *Injector (no faults) and safe for
// concurrent use, although the executors consult it from the
// single-threaded event loop, which is what makes draw order — and hence
// the whole fault schedule — deterministic.
package faults

import (
	"fmt"
	"sort"
	"sync"

	"rotary/internal/sim"
)

// Kind classifies one injected fault.
type Kind int

// Fault kinds.
const (
	// None means the operation proceeds unharmed.
	None Kind = iota
	// Crash interrupts a running epoch: the worker process (AQP) or the
	// GPU device (DLT) dies and every in-flight result is lost.
	Crash
	// Transient is a retryable checkpoint I/O error (EIO, a flaky NFS
	// mount, a throttled blob store).
	Transient
	// Corrupt silently flips checkpoint bytes on their way to disk; the
	// store's checksum detects it at load time.
	Corrupt
	// Slow is a slow-storage event: the I/O completes but takes extra
	// virtual time.
	Slow
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Transient:
		return "transient"
	case Corrupt:
		return "corrupt"
	case Slow:
		return "slow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config sets the fault mix. All rates are per-opportunity probabilities
// in [0, 1): CrashRate applies once per started epoch, the I/O rates once
// per checkpoint read/write attempt. The rates are classified from a
// single uniform draw per opportunity, so TransientRate + CorruptRate +
// SlowRate must not exceed 1.
type Config struct {
	// Seed drives every draw; equal seeds replay identical fault
	// schedules against identical executor event sequences.
	Seed uint64
	// CrashRate is the probability a started epoch is interrupted by a
	// worker/device crash.
	CrashRate float64
	// TransientRate is the probability a checkpoint I/O attempt fails
	// with a retryable error.
	TransientRate float64
	// CorruptRate is the probability a checkpoint write's bytes are
	// silently corrupted (reads are never corrupted directly: corruption
	// is planted at write time and caught by the checksum at load).
	CorruptRate float64
	// SlowRate is the probability a checkpoint I/O attempt hits a
	// slow-storage event.
	SlowRate float64
}

// slowMeanSecs is the mean extra virtual latency of a slow I/O op
// (exponentially distributed).
const slowMeanSecs = 5

// meanRepairSecs is the mean virtual downtime of a crashed device before
// it rejoins the cluster (exponentially distributed, clamped to ≥ 1s).
const meanRepairSecs = 60

// Uniform is a convenience mix: crash, transient and slow faults all at
// rate, corruption at rate/2. It is what the -fault-rate command-line
// flag constructs.
func Uniform(seed uint64, rate float64) Config {
	if rate < 0 {
		rate = 0
	}
	if rate > 0.3 {
		rate = 0.3 // keep the classification draw well-formed and runs convergent
	}
	return Config{
		Seed:          seed,
		CrashRate:     rate,
		TransientRate: rate,
		CorruptRate:   rate / 2,
		SlowRate:      rate,
	}
}

// Recoverable is the Uniform mix without corruption: every injected
// fault is recoverable from the last valid checkpoint, the precondition
// of the chaos suite's bit-equivalence check.
func Recoverable(seed uint64, rate float64) Config {
	c := Uniform(seed, rate)
	c.CorruptRate = 0
	return c
}

// Stats counts the faults an injector has dealt.
type Stats struct {
	Crashes     int
	Transients  int
	Corruptions int
	SlowIOs     int
}

// Injector deals deterministic faults from a seeded PRNG.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *sim.Rand
	stats Stats
}

// New returns an injector for the given mix.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: sim.NewRand(cfg.Seed ^ 0xfa017)}
}

// Enabled reports whether the injector deals faults (false for nil).
func (in *Injector) Enabled() bool { return in != nil }

// EpochCrash reports whether an epoch of the given virtual length is
// interrupted by a crash, and after how many virtual seconds. The crash
// point is uniform over the middle 90% of the epoch.
func (in *Injector) EpochCrash(epochSecs float64) (afterSecs float64, crashed bool) {
	if in == nil || in.cfg.CrashRate <= 0 || epochSecs <= 0 {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.cfg.CrashRate {
		return 0, false
	}
	in.stats.Crashes++
	return in.rng.Range(0.05, 0.95) * epochSecs, true
}

// WriteFault draws the fault affecting one checkpoint write attempt.
func (in *Injector) WriteFault() Kind {
	return in.ioFault(true)
}

// ReadFault draws the fault affecting one checkpoint read attempt.
// Corruption never originates at read time — it is planted by WriteFault
// and surfaces as a checksum mismatch when the frame is decoded.
func (in *Injector) ReadFault() Kind {
	return in.ioFault(false)
}

func (in *Injector) ioFault(write bool) Kind {
	if in == nil {
		return None
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	corrupt := 0.0
	if write {
		corrupt = in.cfg.CorruptRate
	}
	u := in.rng.Float64()
	switch {
	case u < in.cfg.TransientRate:
		in.stats.Transients++
		return Transient
	case u < in.cfg.TransientRate+corrupt:
		in.stats.Corruptions++
		return Corrupt
	case u < in.cfg.TransientRate+corrupt+in.cfg.SlowRate:
		in.stats.SlowIOs++
		return Slow
	default:
		return None
	}
}

// SlowDelaySecs draws the extra virtual latency of one slow I/O event.
func (in *Injector) SlowDelaySecs() float64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Exp(slowMeanSecs)
}

// RepairSecs draws the virtual downtime of a crashed device.
func (in *Injector) RepairSecs() float64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	d := in.rng.Exp(meanRepairSecs)
	if d < 1 {
		d = 1
	}
	return d
}

// CrashSchedule is a deterministic process-crash plan for the durable
// serving mode's kill-restart chaos suite: a seeded sequence of virtual
// times at which the arbiter daemon itself is killed (SIGKILL — no drain,
// no flush beyond what each journal append already fsynced). Unlike the
// Injector's per-opportunity draws, the schedule is fixed up front: the
// test harness needs to know every kill point before the run starts so it
// can drive the victim to exactly that virtual time, kill it, and restart
// it from the journal.
type CrashSchedule struct {
	points []float64
}

// NewCrashSchedule draws kills daemon-kill points uniformly over
// (0, horizonSecs), sorted ascending, from the seed. Equal seeds replay
// identical schedules. A non-positive kills or horizon yields an empty
// schedule.
func NewCrashSchedule(seed uint64, horizonSecs float64, kills int) *CrashSchedule {
	s := &CrashSchedule{}
	if kills <= 0 || horizonSecs <= 0 {
		return s
	}
	rng := sim.NewRand(seed ^ 0x1c11)
	s.points = make([]float64, 0, kills)
	for i := 0; i < kills; i++ {
		s.points = append(s.points, rng.Range(0, 1)*horizonSecs)
	}
	sort.Float64s(s.points)
	return s
}

// Points returns the kill times in ascending virtual-time order.
func (s *CrashSchedule) Points() []float64 {
	out := make([]float64, len(s.points))
	copy(out, s.points)
	return out
}

// VictimShards draws a deterministic victim shard index for each kill of
// a multi-shard chaos plan: element i is the shard to SIGKILL at the i-th
// kill point. The draw is independent of the kill times so the same seed
// pairs the same victims with NewCrashSchedule's points. Equal seeds
// replay identical victim sequences; non-positive kills or shards yields
// an empty plan.
func VictimShards(seed uint64, kills, shards int) []int {
	if kills <= 0 || shards <= 0 {
		return nil
	}
	rng := sim.NewRand(seed ^ 0x5a4d)
	out := make([]int, kills)
	for i := range out {
		out[i] = rng.IntN(shards)
	}
	return out
}

// Stats returns the counts of faults dealt so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
