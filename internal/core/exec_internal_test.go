package core

import (
	"fmt"
	"testing"

	"rotary/internal/obs"
)

// synthAQPQueue builds n AQP jobs with ascending IDs. The tests
// that use it read only job IDs and tenants, so the jobs carry no query.
func synthAQPQueue(n int) []*AQPJob {
	jobs := make([]*AQPJob, n)
	for i := range jobs {
		jobs[i] = &AQPJob{jobCore: jobCore{id: fmt.Sprintf("aqp-%05d", i)}}
	}
	return jobs
}

// synthDLTQueue is the DLT twin of synthAQPQueue: no trainer attached.
func synthDLTQueue(n int) []*DLTJob {
	jobs := make([]*DLTJob, n)
	for i := range jobs {
		jobs[i] = &DLTJob{jobCore: jobCore{id: fmt.Sprintf("dlt-%05d", i)}}
	}
	return jobs
}

// synthCtx offers jobs an 8-thread pool with ample memory.
func synthCtx(jobs []*AQPJob) *AQPContext {
	return &AQPContext{
		Pending:      jobs,
		FreeThreads:  8,
		TotalThreads: 8,
		FreeMemMB:    1 << 20,
		TotalMemMB:   1 << 20,
	}
}

// TestRunningJobsSortedByID: the executors present ctx.Running sorted by
// job ID. Map iteration order is randomized per process, so feeding the
// running map in any insertion order must still yield one canonical
// slice — repeatedly, since the scratch slice is reused.
func TestRunningJobsSortedByID(t *testing.T) {
	jobs := synthAQPQueue(9)
	e := NewAQPExecutor(DefaultAQPExecConfig(1e6), NewRotaryAQP(nil), nil)
	// Insert in a scrambled order; the map will scramble further.
	for _, i := range []int{4, 0, 8, 2, 6, 1, 7, 3, 5} {
		e.running[jobs[i].id] = jobs[i]
	}
	for round := 0; round < 5; round++ {
		got := e.runningJobs()
		if len(got) != len(jobs) {
			t.Fatalf("round %d: %d jobs, want %d", round, len(got), len(jobs))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].id >= got[i].id {
				t.Fatalf("round %d: running set not sorted: %q before %q", round, got[i-1].id, got[i].id)
			}
		}
	}

	dltJobs := synthDLTQueue(7)
	d := NewDLTExecutor(DefaultDLTExecConfig(), NewRotaryDLT(0.5, nil, nil), nil)
	for _, i := range []int{3, 6, 0, 5, 1, 4, 2} {
		d.running[dltJobs[i].id] = dltJobs[i]
	}
	for round := 0; round < 5; round++ {
		got := d.runningJobs()
		if len(got) != len(dltJobs) {
			t.Fatalf("round %d: %d DLT jobs, want %d", round, len(got), len(dltJobs))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].id >= got[i].id {
				t.Fatalf("round %d: DLT running set not sorted: %q before %q", round, got[i-1].id, got[i].id)
			}
		}
	}
}

// TestNoteUntracedAllocatesNothing pins note's lazy Detail: with no tracer
// every transition books its ledgers without a single allocation (the
// per-status outcome counter registers at its first use, which
// AllocsPerRun's warm-up call absorbs).
func TestNoteUntracedAllocatesNothing(t *testing.T) {
	cfg := DefaultAQPExecConfig(1e6)
	cfg.Obs = obs.NewRegistry()
	e := NewAQPExecutor(cfg, NewRotaryAQP(nil), nil)
	e.lc.Tracer = nil // no process default either
	j := synthAQPQueue(1)[0]
	j.status = StatusExpired
	for k := TraceArrive; k <= TraceDetach; k++ {
		ev := TraceEvent{Kind: k, Detail: "q-1"}
		if n := testing.AllocsPerRun(100, func() { e.note(j, ev, 1.5) }); n != 0 {
			t.Errorf("note(%v) with no tracer: %v allocations, want 0", k, n)
		}
	}
}
