package serve

import (
	"fmt"
	"sort"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/core"
)

// unjournaled is the full walk syncState used to make, kept as the
// reference model: it visits every job registered this incarnation and
// lists each transition its journal mark does not yet hold — an epoch, a
// terminal status, a grant or its release — plus any disagreement
// between the live set and the journal's record of which jobs are
// terminal. Right after a sweep it must find nothing, however few jobs
// the sweep itself visited.
func unjournaled(s *Server) []string {
	var lag []string
	for id, j := range s.jobIndex {
		e, terminal := s.liveJobs[id], journaledTerminal(s, id, j)
		switch {
		case e == nil && !terminal:
			lag = append(lag, id+": live job missing from the live set")
			continue
		case e == nil:
			continue // retired
		case terminal:
			lag = append(lag, id+": journal-terminal but still live")
			continue
		case e.j != j:
			lag = append(lag, id+": live set holds another job under its id")
			continue
		}
		if ep := j.Epochs(); ep > e.epochs {
			lag = append(lag, fmt.Sprintf("%s: epoch %d unjournaled (mark %d)", id, ep, e.epochs))
		}
		st := j.Status()
		if st.Terminal() {
			lag = append(lag, fmt.Sprintf("%s: terminal status %s unjournaled", id, st))
		}
		if running := st == core.StatusRunning; running != e.running {
			lag = append(lag, fmt.Sprintf("%s: status %s, mark running=%v", id, st, e.running))
		}
	}
	retired := 0
	for id := range s.jobIndex {
		if s.liveJobs[id] == nil {
			retired++
		}
	}
	if retired != s.terminal || len(s.liveJobs) != len(s.jobIndex)-retired {
		lag = append(lag, fmt.Sprintf("%d of %d registered jobs retired, %d live, terminal counter %d",
			retired, len(s.jobIndex), len(s.liveJobs), s.terminal))
	}
	sort.Strings(lag)
	return lag
}

// journaledTerminal reports whether the journal holds a terminal record
// for id: durably, or staged in the group commit the current batch ends
// with. A daemon without a journal journals nothing, and the job's own
// status stands in.
func journaledTerminal(s *Server, id string, j *core.AQPJob) bool {
	if s.jl == nil {
		return j.Status().Terminal()
	}
	for i := len(s.staged) - 1; i >= 0; i-- {
		if r := s.staged[i]; r.ID == id && r.Kind == recTerminal {
			return true
		}
	}
	jr, ok := s.jl.Job(id)
	return ok && terminalStatus(jr.Status)
}

// auditSweep arms d so that after every request (and at every boot) the
// reference model finds nothing left to journal.
func auditSweep(t *testing.T, d *daemon) *int {
	checks := new(int)
	d.afterRequest = func(s *Server) {
		*checks++
		if lag := unjournaled(s); len(lag) > 0 {
			t.Errorf("after request %d the journal lags the live state: %v", *checks, lag)
		}
	}
	return checks
}

// TestSweepMatchesFullWalkModel replays the kill-restart, overload and
// noisy-neighbor flows at seeds 1/7/42 with the reference model checked
// after every request: diffing only the jobs the executor noted must
// leave exactly what the deleted walk over every live job would have.
func TestSweepMatchesFullWalkModel(t *testing.T) {
	untracked := func(plan []chaosEvent) []chaosEvent {
		out := append([]chaosEvent(nil), plan...)
		for i := range out {
			out[i].untracked = true
		}
		return out
	}
	flows := []struct {
		name string
		boot func(t *testing.T) *daemon
		plan func(seed int64) []chaosEvent
	}{
		{"kill-restart", func(t *testing.T) *daemon { return newDaemon(t, daemon{durable: true}) },
			func(seed int64) []chaosEvent { return chaosPlan(uint64(seed), true) }},
		{"overload", func(t *testing.T) *daemon {
			return newDaemon(t, daemon{durable: true, admit: &admission.Config{
				MaxQueueDepth: 24, SlackFactor: 1, Policy: admission.ShedLowestValue}})
		}, func(seed int64) []chaosEvent {
			// The chaos plan under a flood ten times its size, at a queue
			// bound that sheds and refuses: every submit may be turned away.
			// Each burst's deadlines shrink, so later arrivals outrank
			// queued ones and shed them.
			plan := untracked(chaosPlan(uint64(seed), false))
			for i, ev := range untracked(plan) {
				for k := 0; k < 10; k++ {
					ev.id = fmt.Sprintf("flood-%d-%d-%d", seed, i, k)
					ev.stmt = fmt.Sprintf("q6 ACC MIN 60%% WITHIN %d SECONDS", 3000-250*k)
					plan = append(plan, ev)
				}
			}
			sort.SliceStable(plan, func(i, j int) bool { return plan[i].at < plan[j].at })
			return plan
		}},
		{"noisy-neighbor", func(t *testing.T) *daemon {
			return newTenantDaemon(t, admission.TenantTable{Tenants: map[string]admission.TenantQuota{
				"a": {Weight: 4},
				"b": {Weight: 1, RatePerSec: 0.1, Burst: 3, MaxActive: 2, MaxPending: 2},
			}})
		}, func(seed int64) []chaosEvent {
			a, b := noisyPlan(seed)
			plan := append(append(append([]chaosEvent(nil), a...), b...), chaosEvent{at: 130, kind: "kill"})
			sort.SliceStable(plan, func(i, j int) bool {
				if plan[i].at != plan[j].at {
					return plan[i].at < plan[j].at
				}
				return plan[i].id < plan[j].id
			})
			return plan
		}},
	}
	for _, f := range flows {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", f.name, seed), func(t *testing.T) {
				d := f.boot(t)
				checks := auditSweep(t, d)
				d.start(t)
				c, _ := drive(t, dial(t, d.socket), f.plan(seed), func(float64) *client { return d.restart(t) })
				for i := 0; i < 6; i++ {
					if r := c.call(t, Message{Op: "advance", Seconds: 500}); !r.OK {
						t.Fatalf("advance: %+v", r)
					}
				}
				c.drain(t)
				d.kill() // the driver has exited: its count is safe to read
				if *checks < 20 {
					t.Fatalf("model checked only %d times", *checks)
				}
			})
		}
	}
}

// TestSweepVisitsStayLinearInSubmits: on a frozen clock every submit
// leaves its job queued, so the live set grows with each one. A sweep
// that walked the live set would visit ~N²/2 jobs over N submits; one
// that diffs only the noted jobs visits about one per submit. A submit
// sweeps once, and s.noted holds what that sweep visited.
func TestSweepVisitsStayLinearInSubmits(t *testing.T) {
	const n = 1000
	d := newDaemon(t, daemon{})
	d.boot(t)
	visits := 0
	for i := 0; i < n; i++ {
		r := d.srv.handle(Message{Op: "submit", ID: fmt.Sprintf("s%04d", i),
			Statement: "q6 ACC MIN 90% WITHIN 100000 SECONDS"})
		if !r.OK {
			t.Fatalf("submit %d: %+v", i, r)
		}
		visits += len(d.srv.noted)
	}
	if live := len(d.srv.liveJobs); live != n {
		t.Fatalf("%d jobs live after %d submits on a frozen clock, want all", live, n)
	}
	if got, limit := visits, 2*n; got > limit {
		t.Fatalf("%d submits cost %d sweep visits, want at most %d", n, got, limit)
	}
	if lag := unjournaled(d.srv); len(lag) > 0 {
		t.Fatalf("the journal lags the live state: %v", lag)
	}
}
