package core

import (
	"rotary/internal/cluster"
	"rotary/internal/sim"
)

// This file defines the resource-arbitration policy interface of §III-D:
// π : Q_t → assign(W, M). A policy sees the current queue state (pending
// and running jobs with their intermediate state) plus the free resources,
// and produces assignment decisions. The executors apply the decisions,
// run the selected jobs for an epoch, observe the attainment progress, and
// invoke the policy again — Algorithm 1's loop.

// AQPContext is the queue state Q_t an AQP policy decides over.
type AQPContext struct {
	Now sim.Time
	// Pending holds active jobs currently without resources; Running holds
	// jobs mid-epoch (informational — their resources are not preemptible
	// before the epoch boundary, per §III-D "a job holds on to a
	// particular resource for at least an epoch").
	Pending []*AQPJob
	Running []*AQPJob

	FreeThreads  int
	TotalThreads int
	FreeMemMB    float64
	TotalMemMB   float64
}

// AQPGrant assigns threads (and a memory reservation) to a pending job
// for its next running epoch.
type AQPGrant struct {
	Job     *AQPJob
	Threads int
	// ReserveMemMB is the memory reservation the executor books against
	// the pool; memory-blind policies (ReLAQS) reserve zero and risk
	// oversubscription pressure.
	ReserveMemMB float64
}

// AQPScheduler is a resource-arbitration policy for the AQP system.
type AQPScheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Assign produces this round's grants. Jobs not granted stay pending
	// (deferred, checkpointed). Grants must not exceed the free resources.
	Assign(ctx *AQPContext) []AQPGrant
}

// DLTContext is the queue state a DLT policy decides over.
type DLTContext struct {
	Now      sim.Time
	Pending  []*DLTJob
	Running  []*DLTJob
	FreeGPUs []cluster.GPU
}

// DLTPlacement assigns a pending job to a free device for one epoch.
type DLTPlacement struct {
	Job    *DLTJob
	Device int
	// EstMemMB is the memory estimate used for the placement decision
	// (recorded for diagnostics; the executor verifies the actual fit).
	EstMemMB float64
}

// DLTScheduler is a resource-arbitration policy for the DLT system.
type DLTScheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Place produces this round's placements onto the free devices.
	Place(ctx *DLTContext) []DLTPlacement
}

// agingLedger is the aging state both starvation guards share: how many
// consecutive arbitration rounds each pending job has been passed over,
// and how many decisions the guard has forced.
type agingLedger struct {
	// maxSkipped is the consecutive-rounds-passed-over threshold.
	maxSkipped int
	skipped    map[string]int
	forced     int
}

func newAgingLedger(maxSkipped int) agingLedger {
	if maxSkipped < 1 {
		maxSkipped = 8
	}
	return agingLedger{maxSkipped: maxSkipped, skipped: make(map[string]int)}
}

// outranks reports whether a job starved for count rounds is strictly
// more starved than holder, whose decision it would displace. An
// unconditional displacement robs the top-ranked (often equally starved)
// job every round, and the guard becomes the starvation it exists to
// prevent.
func (a *agingLedger) outranks(count int, holder string) bool {
	return count > a.skipped[holder]+1
}

// age runs one round of the aging rule over the inner policy's decisions
// out. It picks the most-starved passed-over pending job (ties break by
// ID for determinism) and lets force fund a decision for it, reporting
// whether it could. Counters are read as "what this round would bring
// them to" but committed only against the FINAL decision list — a job
// whose decision the forced one displaces must keep aging, or the guard
// robs the same near-granted job every round while resetting its counter
// and starves it indefinitely.
func age[J interface{ ID() string }, G any](a *agingLedger, pending []J, out []G, idOf func(G) string,
	force func(out []G, starving J, count int) ([]G, bool)) []G {
	granted := make(map[string]bool, len(out))
	for _, g := range out {
		granted[idOf(g)] = true
	}
	var starving J
	starvingCount := 0
	for _, j := range pending {
		if granted[j.ID()] {
			continue
		}
		c := a.skipped[j.ID()] + 1
		if c <= a.maxSkipped {
			continue
		}
		if starvingCount == 0 || c > starvingCount ||
			(c == starvingCount && j.ID() < starving.ID()) {
			starving, starvingCount = j, c
		}
	}
	if starvingCount > 0 {
		var applied bool
		if out, applied = force(out, starving, starvingCount); applied {
			a.forced++
		}
	}
	final := make(map[string]bool, len(out))
	for _, g := range out {
		final[idOf(g)] = true
	}
	seen := make(map[string]bool, len(pending))
	for _, j := range pending {
		seen[j.ID()] = true
		if final[j.ID()] {
			delete(a.skipped, j.ID())
		} else {
			a.skipped[j.ID()]++
		}
	}
	for id := range a.skipped {
		if !seen[id] {
			delete(a.skipped, id) // granted, terminal, or shed: no longer pending
		}
	}
	return out
}

// StarvationGuardAQP wraps any AQP policy with aging: a pending job the
// inner policy passes over for more than MaxSkippedRounds consecutive
// arbitration rounds is forced a minimal one-thread grant, so every
// admitted job eventually runs under any policy. Priority-ordered
// policies (EDF under a stream of tight deadlines, LAF under a steady
// supply of low-accuracy arrivals) otherwise starve the tail of the
// queue indefinitely under sustained overload.
//
// The forced grant reserves no memory (the job may induce pressure — the
// deliberate cost of liveness) and is funded, in order of preference, by
// leftover free threads, by stripping one thread from the widest grant,
// or by displacing the inner policy's last (lowest-priority) grant.
type StarvationGuardAQP struct {
	inner AQPScheduler
	agingLedger
}

// NewStarvationGuardAQP wraps inner; maxSkipped < 1 defaults to 8.
func NewStarvationGuardAQP(inner AQPScheduler, maxSkipped int) *StarvationGuardAQP {
	return &StarvationGuardAQP{inner: inner, agingLedger: newAgingLedger(maxSkipped)}
}

// Name implements AQPScheduler.
func (g *StarvationGuardAQP) Name() string { return g.inner.Name() + "+aging" }

// Assign implements AQPScheduler.
func (g *StarvationGuardAQP) Assign(ctx *AQPContext) []AQPGrant {
	grantID := func(gr AQPGrant) string { return gr.Job.ID() }
	return age(&g.agingLedger, ctx.Pending, g.inner.Assign(ctx), grantID,
		func(grants []AQPGrant, starving *AQPJob, count int) ([]AQPGrant, bool) {
			forced := AQPGrant{Job: starving, Threads: 1}
			used := 0
			for _, gr := range grants {
				used += gr.Threads
			}
			wi := -1
			for i, gr := range grants {
				if gr.Threads > 1 && (wi < 0 || gr.Threads >= grants[wi].Threads) {
					wi = i
				}
			}
			switch {
			case used < ctx.FreeThreads:
				return append(grants, forced), true
			case wi >= 0:
				grants[wi].Threads--
				return append(grants, forced), true
			case len(grants) > 0 && g.outranks(count, grants[len(grants)-1].Job.ID()):
				grants[len(grants)-1] = forced
				return grants, true
			}
			return grants, false
		})
}

// StarvationGuardDLT wraps any DLT policy with the same aging rule: a
// pending job passed over for more than MaxSkippedRounds consecutive
// rounds is forced onto a device — a free one the inner policy left
// idle, else the device of the inner policy's last placement.
type StarvationGuardDLT struct {
	inner DLTScheduler
	agingLedger
}

// NewStarvationGuardDLT wraps inner; maxSkipped < 1 defaults to 8.
func NewStarvationGuardDLT(inner DLTScheduler, maxSkipped int) *StarvationGuardDLT {
	return &StarvationGuardDLT{inner: inner, agingLedger: newAgingLedger(maxSkipped)}
}

// Name implements DLTScheduler.
func (g *StarvationGuardDLT) Name() string { return g.inner.Name() + "+aging" }

// Place implements DLTScheduler.
func (g *StarvationGuardDLT) Place(ctx *DLTContext) []DLTPlacement {
	placementID := func(p DLTPlacement) string { return p.Job.ID() }
	return age(&g.agingLedger, ctx.Pending, g.inner.Place(ctx), placementID,
		func(placements []DLTPlacement, starving *DLTJob, count int) ([]DLTPlacement, bool) {
			usedDev := make(map[int]bool, len(placements))
			for _, p := range placements {
				usedDev[p.Device] = true
			}
			for _, d := range ctx.FreeGPUs {
				if !usedDev[d.ID] {
					return append(placements, DLTPlacement{Job: starving, Device: d.ID}), true
				}
			}
			if n := len(placements); n > 0 && g.outranks(count, placements[n-1].Job.ID()) {
				placements[n-1] = DLTPlacement{Job: starving, Device: placements[n-1].Device}
				return placements, true
			}
			return placements, false
		})
}
