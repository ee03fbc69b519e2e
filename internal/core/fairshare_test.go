package core

import (
	"math"
	"slices"
	"testing"

	"rotary/internal/admission"
)

// unitAQP is a transparent inner policy for fair-share tests: one thread
// per pending job, in queue order, until the free pool is exhausted. Any
// deviation from the expected per-tenant counts is therefore caused by
// the wrapper's partitioning, not by inner-policy ordering.
type unitAQP struct{}

func (unitAQP) Name() string { return "unit" }

func (unitAQP) Assign(ctx *AQPContext) []AQPGrant {
	free := ctx.FreeThreads
	var out []AQPGrant
	for _, j := range ctx.Pending {
		if free <= 0 {
			break
		}
		out = append(out, AQPGrant{Job: j, Threads: 1})
		free--
	}
	return out
}

// rogueAQP is an inner policy the wrapper must police: it grants every
// job in oversized more threads than the whole pool holds, and every
// other pending job one thread twice.
type rogueAQP struct{ oversized map[*AQPJob]bool }

func (rogueAQP) Name() string { return "rogue" }

func (r rogueAQP) Assign(ctx *AQPContext) []AQPGrant {
	var out []AQPGrant
	for _, j := range ctx.Pending {
		if r.oversized[j] {
			out = append(out, AQPGrant{Job: j, Threads: ctx.TotalThreads + 1})
		} else {
			out = append(out, AQPGrant{Job: j, Threads: 1}, AQPGrant{Job: j, Threads: 1})
		}
	}
	return out
}

// tagTenants splits jobs into contiguous per-tenant runs: counts maps
// tenant name to how many jobs it gets, applied in the order of names.
func tagTenants(jobs []*AQPJob, names []string, counts map[string]int) {
	i := 0
	for _, name := range names {
		for k := 0; k < counts[name] && i < len(jobs); k++ {
			jobs[i].tenant = name
			i++
		}
	}
}

func grantsPerTenant(grants []AQPGrant) map[string]int {
	out := make(map[string]int)
	for _, g := range grants {
		out[admission.CanonicalTenant(g.Job.tenant)] += g.Threads
	}
	return out
}

func TestFairLedgerOrderDeficitAscendingWithNameTiebreak(t *testing.T) {
	l := newFairLedger(map[string]float64{"a": 2, "b": 1, "c": 1})
	l.usage["a"] = 4 // norm 2
	l.usage["b"] = 1 // norm 1
	l.usage["c"] = 1 // norm 1, ties with b -> name order
	got := l.order([]string{"a", "b", "c"})
	want := []string{"b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFairLedgerIdleReturnClamp(t *testing.T) {
	l := newFairLedger(map[string]float64{"a": 1, "b": 1, "c": 2})
	ab := map[string]bool{"a": true, "b": true}

	// Round 1: a and b backlogged, no prior round — no one is clamped
	// (there is no continuing minimum yet), both enter wasBack.
	l.clamp(ab, ab)
	if l.usage["a"] != 0 || l.usage["b"] != 0 {
		t.Fatalf("first round mutated usage: %v", l.usage)
	}
	l.usage["a"] = 10
	l.usage["b"] = 4

	// Round 2: c returns from idle with a zero account. The clamp raises
	// it to weight x continuing-minimum-norm (min(10, 4) = 4, weight 2 ->
	// floor 8) so it gets its entitlement but no accumulated credit.
	abc := map[string]bool{"a": true, "b": true, "c": true}
	l.clamp(abc, abc)
	if l.usage["c"] != 8 {
		t.Fatalf("idle-return clamp: c usage = %v, want 8", l.usage["c"])
	}
	if l.usage["a"] != 10 || l.usage["b"] != 4 {
		t.Fatalf("clamp touched continuing tenants: %v", l.usage)
	}

	// Round 3: everyone is continuing now — no further raises even though
	// b's norm (4) is below c's (4) exactly and a's (10) is above.
	l.usage["c"] = 8
	l.clamp(abc, abc)
	if l.usage["c"] != 8 {
		t.Fatalf("continuing tenant re-clamped: c usage = %v", l.usage["c"])
	}

	// Round 4: b leaves the system entirely — pruned from both maps.
	ac := map[string]bool{"a": true, "c": true}
	l.clamp(ac, ac)
	if _, ok := l.usage["b"]; ok {
		t.Fatalf("departed tenant not pruned from usage: %v", l.usage)
	}
	if l.wasBack["b"] {
		t.Fatalf("departed tenant not pruned from wasBack: %v", l.wasBack)
	}
}

func TestFairShareAQPWeightedSplit(t *testing.T) {
	jobs := synthAQPQueue(16)
	tagTenants(jobs, []string{"a", "b"}, map[string]int{"a": 8, "b": 8})
	f := NewFairShareAQP(unitAQP{}, map[string]float64{"a": 3, "b": 1})
	grants := f.Assign(synthCtx(jobs))
	got := grantsPerTenant(grants)
	// 8 free threads, weights 3:1 -> entitlements floor(8*3/4)=6 and
	// floor(8*1/4)=2; both tenants have backlog to fill them.
	if got["a"] != 6 || got["b"] != 2 {
		t.Fatalf("weighted split = %v, want a:6 b:2", got)
	}
	// DRF invariant: equal weighted usage after a fully-subscribed round —
	// a is charged 6 x (1/8) / 3, b is charged 2 x (1/8) / 1.
	u := f.Usage()
	if math.Abs(u["a"]-u["b"]) > 1e-12 {
		t.Fatalf("weighted usage diverged after one round: %v", u)
	}
}

func TestFairShareAQPWorkConserving(t *testing.T) {
	jobs := synthAQPQueue(9)
	tagTenants(jobs, []string{"a", "b"}, map[string]int{"a": 8, "b": 1})
	f := NewFairShareAQP(unitAQP{}, nil)
	grants := f.Assign(synthCtx(jobs))
	got := grantsPerTenant(grants)
	// Equal weights entitle 4 threads each, but b has one job: its unused
	// share must be reclaimed by a, leaving zero idle threads.
	if got["a"] != 7 || got["b"] != 1 {
		t.Fatalf("reclaim split = %v, want a:7 b:1", got)
	}
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 8 {
		t.Fatalf("layer left threads idle: granted %d of 8", total)
	}
}

func TestFairShareAQPSingleTenantPassthrough(t *testing.T) {
	jobs := synthAQPQueue(5)
	for _, j := range jobs {
		j.tenant = "solo"
	}
	f := NewFairShareAQP(unitAQP{}, map[string]float64{"solo": 2})
	bare := unitAQP{}.Assign(synthCtx(jobs))
	wrapped := f.Assign(synthCtx(jobs))
	if !slices.Equal(bare, wrapped) {
		t.Fatalf("single-tenant round diverged from inner policy:\nbare    %v\nwrapped %v", bare, wrapped)
	}
	if u := f.Usage(); u["solo"] == 0 {
		t.Fatalf("passthrough round did not charge the ledger: %v", u)
	}
}

// TestFairShareAQPDropsUnfitAndDuplicateGrants: in a multi-tenant round
// the wrapper keeps only grants that fit the threads still free and at
// most one grant per job, whatever the inner policy returns — in the
// entitlement pass and in the reclaim pass alike.
func TestFairShareAQPDropsUnfitAndDuplicateGrants(t *testing.T) {
	jobs := synthAQPQueue(4)
	tagTenants(jobs, []string{"a", "b"}, map[string]int{"a": 2, "b": 2})
	f := NewFairShareAQP(rogueAQP{oversized: map[*AQPJob]bool{jobs[1]: true, jobs[3]: true}}, nil)
	grants := f.Assign(synthCtx(jobs))
	want := []AQPGrant{{Job: jobs[0], Threads: 1}, {Job: jobs[2], Threads: 1}}
	if !slices.Equal(grants, want) {
		t.Fatalf("grants = %v, want one thread each for %s and %s", grants, jobs[0].id, jobs[2].id)
	}
	u := f.Usage()
	if u["a"] != 1.0/8 || u["b"] != 1.0/8 {
		t.Fatalf("ledger charged dropped grants: %v", u)
	}
}
