// Crash-restart recovery: how a journaled server rebuilds the previous
// incarnation's arbiter state at startup, and how the running server
// keeps the journal in lockstep with the executor afterwards.
//
// Recovery replays the journal's valid prefix (done by OpenJournal),
// restores the virtual clock to the last journaled position, and
// re-registers every non-terminal job with the executor in original
// arrival order — bypassing the admission gate, since each was already
// admitted by the previous incarnation and re-judging it against the
// post-restart (empty) load would change the verdict history. Each
// recovered job reattaches to its latest durable checkpoint at its first
// grant; when none survived it restarts from pristine scratch, counted in
// RecoveryStats.ScratchRestarts. Deadlines are absolute across restarts:
// a recovered job's remaining budget is (arrival + deadline) − recovered
// clock, never the full deadline again.
package serve

import (
	"fmt"
	"path/filepath"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

// OpenDurableIO opens the durability pair rooted at dir: the write-ahead
// journal (dir/serve.journal) and a disk-only checkpoint store
// (dir/ckpt) whose startup sweep retains every checkpoint the journal
// still references as live — a recovered job's reattach target must
// survive the sweep that would otherwise clear "stale" files from the
// killed incarnation. The store is disk-only (no memory tier) and
// write-behind: Server.syncState flushes it just before journaling a
// step's epochs, so every save is durable by the time the epoch that
// produced it is journaled — and no sooner, which keeps the frames on disk
// a consistent cut with the journaled clock. The executor saves encoders,
// not bytes: the flush, between engine events on the driver goroutine,
// encodes only the frames still staged.
//
// Both the journal and the checkpoint store route every durable
// operation through dio (nil means the real filesystem), so one seeded
// diskio.Faulty can deal ENOSPC, EIO, and torn writes to the entire
// durability stack at once — the torture harness's disk-fault hook.
func OpenDurableIO(dir string, dio diskio.IO) (*Journal, *core.CheckpointStore, error) {
	jl, err := OpenJournalIO(dir, dio)
	if err != nil {
		return nil, nil, err
	}
	live := jl.NonTerminalIDs()
	store, err := core.NewCheckpointStoreIO(filepath.Join(dir, "ckpt"), 0,
		func(id string) bool { return live[id] }, dio)
	if err != nil {
		jl.Close()
		return nil, nil, err
	}
	store.DeferWrites()
	return jl, store, nil
}

// recoverFromJournal rebuilds the previous incarnation's state (New,
// before the driver starts): clock, req_id dedupe index, journal diff
// marks, and the executor's job registry in original arrival order.
func (s *Server) recoverFromJournal() error {
	rec := s.jl.Recovered()
	eng := s.exec.Engine()
	// RunUntil advances the clock to the deadline even with an empty
	// event queue — the clock-restoration primitive.
	if vn := sim.Time(rec.VirtualNow); vn > eng.Now() {
		eng.RunUntil(vn)
	}
	s.lastClockAt = eng.Now().Seconds()
	// Rebuild the per-tenant admission buckets as a pure fold over the
	// journaled history: one ReplayAdmitted per historically admitted
	// arrival, in arrival order, at each arrival's virtual time. Rejected
	// arrivals never consumed a token, so they are skipped — after this
	// loop the bucket state is bit-identical to the uninterrupted run's.
	// ("submitted" with no verdict — the torn-append window — replays as
	// admitted, matching its re-registration below.)
	if ctrl := s.exec.Admission(); ctrl != nil {
		for _, jr := range rec.Jobs {
			if jr.Status != "rejected" {
				ctrl.ReplayAdmitted(jr.Tenant, jr.ArrivalAt)
			}
		}
	}
	for _, jr := range rec.Jobs {
		if jr.ReqID != "" {
			s.reqIndex[jr.ReqID] = jr.ID
		}
		if terminalStatus(jr.Status) {
			// Terminal in the journal: nothing to re-register, and the diff
			// mark stops syncState from ever logging it again.
			s.lastJourn[jr.ID] = &jobMark{terminal: true, epochs: jr.Epochs}
		}
		// Recover the auto-id counter past every journaled "srv-<n>" id —
		// terminal ones included — so a restart never re-mints an id the
		// journal still remembers.
		var n int
		if _, err := fmt.Sscanf(jr.ID, "srv-%d", &n); err == nil && n >= s.nextAutoID {
			s.nextAutoID = n + 1
		}
	}
	live := rec.NonTerminal()
	for _, jr := range live {
		j, err := s.rebuildJob(jr)
		if err != nil {
			return fmt.Errorf("serve: recover job %s: %w", jr.ID, err)
		}
		// Seed the mark at the journaled epoch count so replayed progress
		// is not re-journaled; only epochs beyond it append records.
		s.lastJourn[jr.ID] = &jobMark{epochs: jr.Epochs}
		s.exec.Recover(j, eng.Now(), jr.BestEffort)
		s.registerJob(j)
	}
	// Fire the re-registrations and their same-instant arbitration so the
	// recovered queue is granted before the first client request.
	eng.RunUntil(eng.Now())
	s.recovered = len(live)
	s.met.recoveredJobs.Add(int64(len(live)))
	s.syncState()
	s.observeJournal()
	return nil
}

// rebuildJob reconstructs one journaled or handed-over job from its
// submitted statement, with its deadline clipped to what remains of the
// original budget.
func (s *Server) rebuildJob(jr JobRecord) (*core.AQPJob, error) {
	spec, err := s.jobSpec(jr.Statement, jr.Tenant, jr.BatchRows)
	if err != nil {
		return nil, err
	}
	spec.ID = jr.ID
	// Absolute-deadline arithmetic: (arrival + D) − recovered now. A job
	// whose deadline already passed gets an epsilon budget — it
	// re-registers, its watchdog fires immediately, and it terminates with
	// the same "expired" status the uninterrupted run would have reached.
	spec.DeadlineSecs = jr.ArrivalAt + spec.DeadlineSecs - s.exec.Engine().Now().Seconds()
	if spec.DeadlineSecs < 1e-3 {
		spec.DeadlineSecs = 1e-3
	}
	return workload.BuildAQPJob(s.cat, spec)
}

// journal logs records with write-ahead ordering. Outside a batch the
// records are appended (and fsynced) immediately. Inside a batch —
// handleBatch sets s.staging around each request — they are staged and
// group-committed by flushStaged under ONE fsync for the whole batch;
// the write-ahead contract still holds per client because handleBatch
// releases no reply before that flush returns.
func (s *Server) journal(recs ...Record) {
	if s.jl == nil || len(recs) == 0 {
		return
	}
	if s.staging {
		s.staged = append(s.staged, recs...)
		return
	}
	s.appendNow(recs)
}

// appendNow appends records to the journal immediately and folds the
// outcome into the serve-level durability telemetry. Append failures
// outside the write-ahead paths degrade durability, not availability:
// the error is surfaced on the health op and counted. (Write-ahead
// paths — submit, migrate-in, and batched replies — additionally refuse
// once the journal latches degraded.)
func (s *Server) appendNow(recs []Record) error {
	err := s.jl.Append(recs...)
	if err != nil {
		s.jlErr = err
		s.met.journalErrors.Inc()
		return err
	}
	s.met.journalRecords.Add(int64(len(recs)))
	s.observeJournal()
	return nil
}

// observeJournal mirrors the journal's own ledger — compactions run,
// active segment size, size of the snapshot heading it — into the
// registry: after every append, and once at boot so a restarted idle
// daemon already reports the journal it inherited.
func (s *Server) observeJournal() {
	_, compactions, size, snapshot := s.jl.Stats()
	if d := compactions - s.met.journalCompact.Value(); d > 0 {
		s.met.journalCompact.Add(d)
	}
	s.met.journalSize.Set(float64(size))
	s.met.journalSnapshot.Set(float64(snapshot))
}

// journalClock persists the current clock position unconditionally (the
// advance op's explicit jump).
func (s *Server) journalClock() {
	if s.jl == nil {
		return
	}
	now := s.exec.Engine().Now().Seconds()
	s.journal(Record{Kind: recClock, At: now})
	s.lastClockAt = now
}

// syncState diffs the jobs that changed against the last journaled
// position of each and appends the missing transitions — grants,
// completed epochs, terminal statuses — in one batch. Called from the
// driver goroutine after every block of virtual-time progress (submit,
// advance, tick, drain), it guarantees the journal never lags the state a
// client could observe.
//
// The executor books every transition through one writer (note), which
// queues each job it touches once; the sweep takes that queue
// (exec.TakeNoted, in registration order, so the record stream is the
// one a walk of every live job would write) and diffs only those jobs.
// A sweep therefore costs the jobs that moved since the last one, not the
// live set, and a submit costs the same at any queue depth. Jobs that
// reach a terminal status leave the live set here, which is also where
// the terminal counter advances. The sweep runs even without a journal —
// the live set and counters back resume/stats — and s.journal drops the
// records when jl is nil. A periodic clock record bounds how far an idle
// paced server's restart may rewind time.
//
// The sweep opens by flushing the checkpoint store — before the degraded
// return, so the stage never piles up — so the frames the step staged reach
// disk ahead of the epoch records that refer to them. A failed flush loses
// nothing live (DESIGN.md §7): its error is kept for the health op and
// journaling goes on.
func (s *Server) syncState() {
	if st := s.exec.Store(); st != nil {
		s.ckptErr = st.Flush()
	}
	if s.jl != nil && s.jl.Degraded() != nil {
		// Freeze the diff marks while the journal is degraded: advancing
		// them would count transitions as journaled that the failed
		// appends dropped. The live state keeps moving and the executor
		// keeps queueing what it notes; the first sweep after a successful
		// heal (maybeHeal calls one) takes that whole queue, diffs each job
		// against its frozen mark and re-emits exactly the missed records
		// onto the fresh segment.
		return
	}
	now := s.exec.Engine().Now().Seconds()
	var recs []Record
	s.noted = s.exec.TakeNoted(s.noted)
	for _, j := range s.noted {
		e := s.liveJobs[j.ID()]
		if e == nil || e.j != j {
			continue // detached by migrate-out, or already retired
		}
		mark := e.mark
		if ep := j.Epochs(); ep > mark.epochs {
			recs = append(recs, Record{Kind: recEpoch, ID: j.ID(), Epochs: ep, At: now})
			mark.epochs = ep
			mark.running = false
		}
		st := j.Status()
		if st.Terminal() {
			recs = append(recs, Record{Kind: recTerminal, ID: j.ID(), Status: st.String(), Epochs: j.Epochs(), At: now})
			mark.terminal = true
			delete(s.liveJobs, j.ID())
			s.terminal++
			continue
		}
		if running := st == core.StatusRunning; running != mark.running {
			if running {
				recs = append(recs, Record{Kind: recGrant, ID: j.ID(), At: now})
			}
			mark.running = running
		}
	}
	s.liveSize.Store(int64(len(s.liveJobs)))
	if s.jl != nil && now-s.lastClockAt >= clockJournalSecs {
		recs = append(recs, Record{Kind: recClock, At: now})
		s.lastClockAt = now
	}
	s.journal(recs...)
}
