package core

import (
	"fmt"
	"strings"
	"sync"

	"rotary/internal/obs"
	"rotary/internal/sim"
)

// TraceKind classifies an arbitration event.
type TraceKind int

// Arbitration trace events. The sequence for one job is:
// Arrive → (Grant → EpochDone → [Checkpoint])* → Stop, with Resume before
// any Grant that replays persisted state, Place/OOM on the DLT side.
const (
	TraceArrive TraceKind = iota
	TraceGrant
	TracePlace
	TraceEpochDone
	TraceCheckpoint
	TraceResume
	TraceOOM
	TraceStop
	// TraceCrash and TraceRestart extend the lifecycle under fault
	// injection: Crash interrupts a running epoch (the job rolls back to
	// its last valid checkpoint at the next grant), Restart marks a
	// from-scratch restart after an unrecoverable checkpoint.
	TraceCrash
	TraceRestart
	// TraceReject, TraceShed, and TraceWatchdog extend the lifecycle under
	// overload: Reject refuses an arrival at the admission gate, Shed
	// evicts a queued job to admit a higher-value arrival, Watchdog
	// preempts a running epoch that exceeded its virtual-time budget (the
	// job re-queues with a penalty and rolls back at its next grant).
	TraceReject
	TraceShed
	TraceWatchdog
	// TraceDetach marks a checkpoint-carried migration: the job left this
	// executor for another arbiter shard, which reattaches it to its
	// durable checkpoint and traces the rest of its lifecycle.
	TraceDetach
)

// String names the event kind.
func (k TraceKind) String() string {
	switch k {
	case TraceArrive:
		return "arrive"
	case TraceGrant:
		return "grant"
	case TracePlace:
		return "place"
	case TraceEpochDone:
		return "epoch-done"
	case TraceCheckpoint:
		return "checkpoint"
	case TraceResume:
		return "resume"
	case TraceOOM:
		return "oom"
	case TraceStop:
		return "stop"
	case TraceCrash:
		return "crash"
	case TraceRestart:
		return "restart"
	case TraceReject:
		return "reject"
	case TraceShed:
		return "shed"
	case TraceWatchdog:
		return "watchdog"
	case TraceDetach:
		return "detach"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one timestamped arbitration decision or observation.
type TraceEvent struct {
	At   sim.Time
	Kind TraceKind
	Job  string
	// Tenant attributes lifecycle events (arrive/stop/reject/shed) to
	// the job's tenant; empty on events where attribution adds nothing.
	Tenant string
	// Threads (AQP) or Device (DLT) describe the allocation; Detail adds
	// free-form context (status, accuracy, epoch).
	Threads int
	Device  int
	Detail  string
}

// record converts the event to the sink-facing wire form.
func (ev TraceEvent) record(seq uint64) obs.TraceRecord {
	return obs.TraceRecord{
		Seq:     seq,
		At:      ev.At.Seconds(),
		Kind:    ev.Kind.String(),
		Job:     ev.Job,
		Tenant:  ev.Tenant,
		Threads: ev.Threads,
		Device:  ev.Device,
		Detail:  ev.Detail,
	}
}

// Tracer records the arbitration timeline of an executor run. A nil
// Tracer is a no-op, so executors emit unconditionally through Emit.
//
// The zero value keeps the historical batch-run behaviour: an unbounded
// in-memory timeline. NewTracer(capacity) instead bounds memory with a
// ring that keeps the most recent capacity events and counts what it
// overwrote in Dropped() — the required shape for long-lived daemons
// (rotary-serve), where an unbounded slice is a slow leak. Every event,
// kept or dropped, can additionally be streamed through SetSink.
//
// Tracer is safe for concurrent use; in the common single-executor run
// the mutex is uncontended.
type Tracer struct {
	mu       sync.Mutex
	events   []TraceEvent
	capacity int    // 0 = unbounded
	head     int    // ring write position once len(events) == capacity
	dropped  uint64 // events overwritten by the ring
	seq      uint64 // total events emitted, also the sink sequence number
	sink     obs.TraceSink
	sinkErr  error
}

// NewTracer returns a tracer bounded to the given capacity; capacity <= 0
// means unbounded (the zero-value behaviour).
func NewTracer(capacity int) *Tracer {
	if capacity < 0 {
		capacity = 0
	}
	return &Tracer{capacity: capacity}
}

// SetSink tees every subsequent event into sink (nil detaches). The
// first sink error stops further writes; the sink reports it on Close.
func (t *Tracer) SetSink(sink obs.TraceSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = sink
	t.sinkErr = nil
	t.mu.Unlock()
}

// Enabled reports whether events emitted to this tracer are observable
// (nil tracers drop everything). Hot paths use it to skip building
// Detail strings — the dominant arbitration-loop allocation — when no
// one is listening.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity reports the ring bound (0 = unbounded).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// Dropped reports how many events the bounded ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emit appends an event; nil receivers drop it. With a bounded tracer the
// oldest in-memory event is overwritten once the ring is full (the sink,
// if any, still sees every event in order).
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink != nil && t.sinkErr == nil {
		if err := t.sink.WriteTrace(ev.record(t.seq)); err != nil {
			t.sinkErr = err
		}
	}
	t.seq++
	if t.capacity <= 0 {
		t.events = append(t.events, ev)
		return
	}
	if len(t.events) < t.capacity {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % t.capacity
	t.dropped++
}

// snapshot reassembles the timeline in emission order.
func (t *Tracer) snapshot() []TraceEvent {
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// Events returns the recorded timeline in order (for a bounded tracer,
// the most recent Capacity events).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshot()
}

// JobEvents returns the timeline of a single job.
func (t *Tracer) JobEvents(jobID string) []TraceEvent {
	if t == nil {
		return nil
	}
	var out []TraceEvent
	for _, ev := range t.Events() {
		if ev.Job == jobID {
			out = append(out, ev)
		}
	}
	return out
}

// Render formats the last n events (all when n <= 0) as a plain-text log.
func (t *Tracer) Render(n int) string {
	events := t.Events()
	if n > 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%10.1fs %-11s %-24s", ev.At.Seconds(), ev.Kind, ev.Job)
		if ev.Threads > 0 {
			fmt.Fprintf(&b, " threads=%d", ev.Threads)
		}
		if ev.Kind == TracePlace || ev.Kind == TraceOOM {
			fmt.Fprintf(&b, " gpu=%d", ev.Device)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " %s", ev.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
