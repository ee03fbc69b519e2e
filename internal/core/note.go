package core

import (
	"cmp"
	"fmt"
	"slices"
)

// reattachedDetail marks the arrival of a journal-recovered job.
const reattachedDetail = "recovered"

// note books one job transition in every ledger that counts it —
// RecoveryStats, OverloadStats, the execMetrics counters and histogram,
// the OOM count — then traces it. As their only writer (the queue gauges
// and high-water mark, the wall-clock encode histogram and the aging
// guard's forced grants are levels, not transitions), no transition can
// be counted in one ledger and forgotten in another. ev carries what the
// trace shows besides the job: Threads, Device, a constant Detail (a
// reason, a cause, the arrival a shed made room for). x is the one
// number: seconds wasted (crash, watchdog) or of the epoch (epoch done),
// MB needed (OOM), 1 for a resume the memory tier served. Detail is
// formatted only when a tracer listens: untraced, note allocates nothing
// but the job's first slot in the noted queue (see TakeNoted).
func (c *execCore[J]) note(j J, ev TraceEvent, x float64) {
	b, m := j.base(), c.met
	if !b.noted {
		b.noted = true
		c.noted = append(c.noted, j)
	}
	m.count[ev.Kind].Inc()
	switch ev.Kind {
	case TraceArrive:
		if ev.Detail == reattachedDetail {
			c.rec.Reattached++
			m.reattached.Inc()
		} else if b.bestEffort {
			c.overload.Degraded++
			m.degraded.Inc()
		}
	case TraceReject:
		m.count[TraceArrive].Inc() // arrivals count before the admission gate
		c.overload.Rejected++
	case TraceShed:
		c.overload.Shed++
	case TraceStop:
		if b.crashPending {
			// Ended while still recovering: close the latency window without
			// counting a successful recovery.
			b.crashPending = false
			c.rec.RecoveryLatencySecs += (c.eng.Now() - b.crashedSince).Seconds()
		}
	case TraceOOM:
		c.ooms++
	case TraceEpochDone:
		m.epochSecs.Observe(x)
		if b.crashPending {
			b.crashPending = false
			c.rec.Recovered++
			m.recovered.Inc()
			c.rec.RecoveryLatencySecs += (c.eng.Now() - b.crashedSince).Seconds()
		}
	case TraceResume:
		if b.needsRestore {
			c.rec.Rollbacks++
			m.rollbacks.Inc()
		}
	case TraceCrash:
		if !b.crashPending {
			b.crashPending = true
			b.crashedSince = c.eng.Now()
		}
		c.rec.Crashes++
		c.rec.WastedWorkSecs += x
	case TraceRestart:
		c.rec.ScratchRestarts++
	case TraceWatchdog:
		c.overload.WatchdogPreemptions++
		c.overload.WatchdogWastedSecs += x
	}
	if ev.Kind == TraceStop || ev.Kind == TraceReject || ev.Kind == TraceShed {
		m.stops.Inc()
		m.outcome(b.status).Inc()
	}

	if !c.lc.Tracer.Enabled() {
		return
	}
	ev.At, ev.Job = c.eng.Now(), b.id
	switch ev.Kind {
	case TraceArrive, TraceReject:
		ev.Tenant = b.tenant
	case TraceShed:
		ev.Tenant, ev.Detail = b.tenant, "for "+ev.Detail
	case TraceStop:
		ev.Tenant, ev.Detail = b.tenant, b.status.String()
	case TraceWatchdog:
		ev.Detail = fmt.Sprintf("wasted=%.1fs strikes=%d", x, b.watchdogStrikes)
	case TraceEpochDone, TraceCrash, TraceResume, TraceOOM:
		ev.Detail = c.model.detail(j, ev.Kind, x)
	}
	c.lc.Tracer.Emit(ev)
}

// TakeNoted hands over the jobs note booked a transition for since the
// last call, each once, in registration order. Every change of an AQP
// job's status or epoch count is noted, so these are the only AQP jobs
// whose lifecycle can differ from what the caller last saw: the serving
// mode's journal sweep diffs exactly them, at a cost independent of how
// many jobs are live. (A DLT job's re-queue after an OOM is not noted.) buf, the caller's previous result, is cleared and becomes the
// next queue; until a caller takes it, the queue holds each job at most
// once.
func (c *execCore[J]) TakeNoted(buf []J) []J {
	out := c.noted
	for _, j := range out {
		j.base().noted = false
	}
	slices.SortFunc(out, func(a, b J) int { return cmp.Compare(a.base().seq, b.base().seq) })
	clear(buf)
	c.noted = buf[:0]
	return out
}
