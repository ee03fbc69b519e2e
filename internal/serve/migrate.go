// Checkpoint-carried live migration, server side: the three protocol ops
// a router sequences to move one job between shards without losing it.
//
//	migrate-out     drain the job to a detachable state and detach it
//	                (source shard; the reply carries the job's journaled
//	                lifecycle record)
//	migrate-in      rebuild the job from that record, journal the handoff,
//	                and re-register it bypassing admission (target shard)
//	migrate-commit  journal the terminal "migrated" status (source shard)
//
// The ordering is chosen so a crash at any point loses no admitted job.
// After migrate-out the source's journal still lists the job as live, so
// a whole-process crash before migrate-in simply recovers it on the
// source at restart — the in-memory detach was never durable. After
// migrate-in the job is durable on the target; a crash before
// migrate-commit recovers it on BOTH shards (bounded duplicate work, the
// safe side of the trade — the commit record is written last precisely so
// the failure mode is duplication, never loss). The checkpoint itself
// travels out of band: the router exports the frame from the source
// store after migrate-out and imports it under the target's namespace
// before migrate-in, so the target's first grant reattaches exactly like
// a crash-restart recovery would.
package serve

import (
	"errors"
	"fmt"

	"rotary/internal/core"
)

// migrateOut drains the job to a detachable state and detaches it from
// this shard's executor, replying with the journaled lifecycle record the
// router hands to the receiving shard. A running job finishes (or is
// preempted out of) its in-flight epoch first, which fast-forwards this
// shard's virtual clock to the end of that epoch — the cost of never
// tearing an epoch mid-flight. A job that reaches a terminal status
// during the drain has nothing left to move: the reply is OK with code
// "migrate-noop" and the terminal status.
func (s *Server) migrateOut(m Message) Response {
	if m.ID == "" {
		return Response{Error: "serve: migrate-out requires a job id", Code: CodeBadRequest}
	}
	if s.jl == nil {
		return Response{Error: "serve: migration requires a journaled (durable) shard", Code: CodeBadRequest}
	}
	j := s.jobIndex[m.ID]
	eng := s.exec.Engine()
	if j == nil {
		// Not registered: either unknown, or terminal before a restart (the
		// journal remembers those) — a terminal job is a migration no-op.
		if jr, ok := s.jl.Job(m.ID); ok {
			return Response{OK: true, ID: m.ID, Status: jr.Status, Code: CodeMigrateNoop,
				VirtualNow: eng.Now().Seconds()}
		}
		return Response{Error: fmt.Sprintf("serve: unknown job %q", m.ID), Code: CodeUnknownJob}
	}
	// The journaled record is the handoff payload; fetch it before touching
	// the executor so a journal diverged by append failures refuses the
	// migration instead of detaching a job it cannot describe.
	jr, ok := s.jl.Job(m.ID)
	if !ok {
		return Response{Error: fmt.Sprintf("serve: job %q has no journal record (journal degraded?)", m.ID),
			Code: CodeBadRequest}
	}
	// The job's journal mark: detaching drops it from the live set, and
	// the epochs the drain completes are journaled below against it. (A
	// job migrate-commit already retired has none: every epoch is new.)
	marked := 0
	if e := s.liveJobs[m.ID]; e != nil {
		marked = e.epochs
	}
	// Drain until the job is queue-resident (detachable): each Step runs
	// the next engine event, completing the in-flight epoch or limbo wait.
	for {
		if st := j.Status(); st.Terminal() {
			s.syncState()
			return Response{OK: true, ID: m.ID, Status: st.String(), Code: CodeMigrateNoop,
				VirtualNow: eng.Now().Seconds()}
		}
		err := s.exec.Detach(m.ID)
		if err == nil {
			// The executor no longer owns the job; drop it from the serve
			// index too, or the freed "srv-*" slot would still read as taken
			// and the status op would shadow the journal's record.
			s.unregisterJob(m.ID)
			break
		}
		if !errors.Is(err, core.ErrNotDetachable) {
			return Response{Error: err.Error(), Code: CodeBadRequest}
		}
		if !eng.Step() {
			// A live job with an empty event queue should be impossible (its
			// deadline watchdog is always scheduled); report rather than spin.
			return Response{Error: fmt.Sprintf("serve: job %q cannot be drained to a detachable state", m.ID),
				Code: CodeMigrateBusy}
		}
	}
	now := eng.Now().Seconds()
	// Other jobs may have progressed during the drain; the sweep also
	// flushes the drain's checkpoints ahead of the epoch record below.
	s.syncState()
	// Journal epochs the drain completed before handing off the record, so
	// the target resumes from the same durable position a crash-restart
	// would.
	if e := j.Epochs(); e > marked {
		s.journal(Record{Kind: recEpoch, ID: m.ID, Epochs: e, At: now})
	}
	jr.Status = "pending"
	jr.BestEffort = j.BestEffort()
	if e := j.Epochs(); e > jr.Epochs {
		jr.Epochs = e
	}
	return Response{
		OK:         true,
		ID:         m.ID,
		Status:     "pending",
		BestEffort: jr.BestEffort,
		VirtualNow: now,
		Job:        &jr,
	}
}

// migrateIn rebuilds a job another shard detached and registers it here,
// bypassing admission (the job was already admitted by its home shard;
// re-judging it against this shard's load would change the verdict
// history). The handoff is journaled before the executor sees the job —
// the same WAL ordering as submit — with the ORIGINAL arrival time, so
// absolute-deadline arithmetic on any later restart still charges the job
// for time already spent on its home shard. If the router imported a
// checkpoint frame under this shard's namespace first, the first grant
// reattaches to it; otherwise the job restarts from pristine scratch,
// exactly like crash-restart recovery.
func (s *Server) migrateIn(m Message) Response {
	if m.Job == nil || m.Job.ID == "" {
		return Response{Error: "serve: migrate-in requires a job record", Code: CodeBadRequest}
	}
	jr := *m.Job
	if _, ok := s.jobIndex[jr.ID]; ok {
		return Response{Error: fmt.Sprintf("serve: duplicate job id %q", jr.ID), Code: CodeDuplicateRequest}
	}
	if s.jl != nil {
		if prev, ok := s.jl.Job(jr.ID); ok && terminalStatus(prev.Status) {
			return Response{Error: fmt.Sprintf("serve: job %q already terminal here (%s)", jr.ID, prev.Status),
				Code: CodeDuplicateRequest}
		}
		if derr := s.jl.Degraded(); derr != nil {
			// Same write-ahead refusal as submit: a handoff this shard cannot
			// make durable must not be accepted — the router keeps the job on
			// its (still-durable) source shard instead.
			return Response{
				Error:          "serve: journal degraded: " + derr.Error(),
				Code:           CodeJournalDegraded,
				RetryAfterSecs: s.cfg.HealProbeSecs,
			}
		}
	}
	j, err := s.rebuildJob(jr)
	if err != nil {
		return Response{Error: fmt.Sprintf("serve: migrate-in %s: %v", jr.ID, err), Code: CodeBadRequest}
	}
	eng := s.exec.Engine()
	now := eng.Now().Seconds()
	recs := []Record{{Kind: recSubmit, ID: jr.ID, ReqID: jr.ReqID, Statement: jr.Statement,
		Tenant: jr.Tenant, BatchRows: jr.BatchRows, At: jr.ArrivalAt}}
	verdict := "admitted"
	if jr.BestEffort {
		verdict = "degraded"
	}
	recs = append(recs, Record{Kind: recVerdict, ID: jr.ID, Status: verdict, At: now})
	if jr.Epochs > 0 {
		recs = append(recs, Record{Kind: recEpoch, ID: jr.ID, Epochs: jr.Epochs, At: now})
	}
	s.journal(recs...)
	if jr.ReqID != "" {
		s.reqIndex[jr.ReqID] = jr.ID
	}
	s.exec.Recover(j, eng.Now(), jr.BestEffort)
	// Seed the diff mark at the carried epoch count so migrated progress is
	// not re-journaled; only epochs completed here append records.
	s.registerJob(j, jr.Epochs)
	// Fire the re-registration and its same-instant arbitration so the
	// reply reports the job's live status on its new shard.
	eng.RunUntil(eng.Now())
	s.syncState()
	return Response{
		OK:         true,
		ID:         jr.ID,
		Status:     j.Status().String(),
		BestEffort: j.BestEffort(),
		VirtualNow: eng.Now().Seconds(),
	}
}

// migrateCommit journals the terminal "migrated" status on the source
// shard — the last step of a migration, written only after the target
// durably holds the job. From here the source's journal stops listing the
// job as live: a restart will not re-register it, the status op reports
// "migrated", and the retain-aware checkpoint sweep may clear its
// orphaned frame. Committing an already-terminal job is an idempotent
// no-op (code "migrate-noop"), so a router retrying after a lost reply is
// safe.
func (s *Server) migrateCommit(m Message) Response {
	if m.ID == "" {
		return Response{Error: "serve: migrate-commit requires a job id", Code: CodeBadRequest}
	}
	if s.jl == nil {
		return Response{Error: "serve: migration requires a journaled (durable) shard", Code: CodeBadRequest}
	}
	jr, ok := s.jl.Job(m.ID)
	if !ok {
		return Response{Error: fmt.Sprintf("serve: unknown job %q", m.ID), Code: CodeUnknownJob}
	}
	now := s.exec.Engine().Now().Seconds()
	if terminalStatus(jr.Status) {
		return Response{OK: true, ID: m.ID, Status: jr.Status, Code: CodeMigrateNoop, VirtualNow: now}
	}
	s.journal(Record{Kind: recTerminal, ID: m.ID, Status: "migrated", Epochs: jr.Epochs, At: now})
	if e := s.liveJobs[m.ID]; e != nil {
		// Committed without a migrate-out: the journal now holds the job's
		// terminal record, so it leaves the live set here.
		delete(s.liveJobs, m.ID)
		s.terminal++
		s.liveSize.Store(int64(len(s.liveJobs)))
	}
	return Response{OK: true, ID: m.ID, Status: "migrated", VirtualNow: now}
}
