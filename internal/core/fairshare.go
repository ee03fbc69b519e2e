package core

import (
	"sort"

	"rotary/internal/admission"
)

// This file implements the weighted fair-share arbitration layer: a
// DRF-style wrapper that partitions each arbitration round's free
// resources across tenants before the wrapped policy orders jobs within
// each tenant's share. The isolation claim it carries (proved by the
// noisy-neighbor chaos suite in internal/serve) is that one tenant's
// backlog cannot consume another tenant's guaranteed share: every
// backlogged tenant is offered its weight-proportional entitlement
// every round, in deficit order, before any leftover capacity is
// reclaimed work-conservingly.
//
// The deficit ledger is a cumulative dominant-resource usage account
// (Ghodsi et al.'s DRF share: max over resources of the granted
// fraction, divided by the tenant's weight). Tenants are served in
// ascending usage-per-weight order, so a tenant returning from idle —
// whose account lags the field — is first in line. The idle-return
// clamp bounds that credit: when a tenant becomes backlogged, its
// account is raised to the current backlogged minimum, so unused share
// is reclaimable by others while guaranteed share is recoverable within
// one arbitration round — a returning tenant gets its full entitlement
// immediately but cannot starve the field to "repay" arbitrarily old
// idleness.

// fairLedger is the wrapper's tenant usage account.
type fairLedger struct {
	weights map[string]float64
	usage   map[string]float64
	// wasBack is the previous round's backlogged set: the idle-return
	// clamp raises only tenants (re)entering the backlog, and "entering"
	// is defined against this.
	wasBack map[string]bool
}

func newFairLedger(weights map[string]float64) fairLedger {
	w := make(map[string]float64, len(weights))
	for name, v := range weights {
		if v > 0 {
			w[admission.CanonicalTenant(name)] = v
		}
	}
	return fairLedger{weights: w, usage: make(map[string]float64), wasBack: make(map[string]bool)}
}

func (l *fairLedger) weight(tenant string) float64 {
	if w, ok := l.weights[tenant]; ok {
		return w
	}
	return 1
}

// clamp prunes tenants that left the system entirely and applies the
// idle-return bound: a tenant (re)entering the backlog has its account
// raised to the continuously-backlogged minimum usage-per-weight, so it
// gets its full weight-proportional entitlement immediately but carries
// no accumulated credit for the rounds it sat idle — others reclaimed
// that share for good. live holds every tenant present in the round
// (pending or running); backlogged the subset with pending work.
func (l *fairLedger) clamp(live, backlogged map[string]bool) {
	for name := range l.usage {
		if !live[name] {
			delete(l.usage, name)
		}
	}
	for name := range l.wasBack {
		if !live[name] {
			delete(l.wasBack, name)
		}
	}
	minNorm := -1.0
	for name := range backlogged {
		if !l.wasBack[name] {
			continue
		}
		n := l.usage[name] / l.weight(name)
		if minNorm < 0 || n < minNorm {
			minNorm = n
		}
	}
	if minNorm > 0 {
		for name := range backlogged {
			if l.wasBack[name] {
				continue
			}
			if floor := l.weight(name) * minNorm; l.usage[name] < floor {
				l.usage[name] = floor
			}
		}
	}
	for name := range l.wasBack {
		if !backlogged[name] {
			delete(l.wasBack, name)
		}
	}
	for name := range backlogged {
		l.wasBack[name] = true
	}
}

// order returns the backlogged tenants in service order: ascending
// usage-per-weight, ties by name — deterministic for replays.
func (l *fairLedger) order(backlogged []string) []string {
	sort.Slice(backlogged, func(i, j int) bool {
		ni := l.usage[backlogged[i]] / l.weight(backlogged[i])
		nj := l.usage[backlogged[j]] / l.weight(backlogged[j])
		if ni != nj {
			return ni < nj
		}
		return backlogged[i] < backlogged[j]
	})
	return backlogged
}

// charge books one grant's dominant share against a tenant.
func (l *fairLedger) charge(tenant string, dominant float64) {
	l.usage[tenant] += dominant / l.weight(tenant)
}

// Usage snapshots the deficit ledger (tests and reports).
func (l *fairLedger) Usage() map[string]float64 {
	out := make(map[string]float64, len(l.usage))
	for name, v := range l.usage {
		out[name] = v
	}
	return out
}

// FairShareAQP wraps an AQP policy with weighted fair share over
// threads and memory. Compose it under the starvation guard: executor
// wiring puts the guard (when configured) outside.
type FairShareAQP struct {
	inner AQPScheduler
	fairLedger
}

// NewFairShareAQP wraps inner with the given tenant weight map (absent
// or non-positive weights default to 1).
func NewFairShareAQP(inner AQPScheduler, weights map[string]float64) *FairShareAQP {
	return &FairShareAQP{inner: inner, fairLedger: newFairLedger(weights)}
}

// Name implements AQPScheduler.
func (f *FairShareAQP) Name() string { return f.inner.Name() + "+fair" }

// Assign implements AQPScheduler: clamp the ledger, partition the free
// pool by weight in deficit order, reclaim leftovers work-conservingly,
// then charge the final grants.
func (f *FairShareAQP) Assign(ctx *AQPContext) []AQPGrant {
	live := make(map[string]bool)
	backlogged := make(map[string]bool)
	groups := make(map[string][]*AQPJob)
	var names []string // backlogged tenants, first-seen order
	for _, j := range ctx.Pending {
		t := admission.CanonicalTenant(j.tenant)
		live[t] = true
		if !backlogged[t] {
			backlogged[t] = true
			names = append(names, t)
		}
		groups[t] = append(groups[t], j)
	}
	for _, j := range ctx.Running {
		live[admission.CanonicalTenant(j.tenant)] = true
	}
	f.clamp(live, backlogged)
	var grants []AQPGrant
	if len(names) <= 1 {
		// Single-tenant rounds need no partitioning: the inner policy sees
		// the whole pool, and only the ledger charge differs from a bare run.
		grants = f.inner.Assign(ctx)
	} else {
		grants = f.share(ctx, groups, names)
	}
	for _, g := range grants {
		dom := 0.0
		if ctx.TotalThreads > 0 {
			dom = float64(g.Threads) / float64(ctx.TotalThreads)
		}
		if ctx.TotalMemMB > 0 {
			if m := g.ReserveMemMB / ctx.TotalMemMB; m > dom {
				dom = m
			}
		}
		f.charge(admission.CanonicalTenant(g.Job.tenant), dom)
	}
	return grants
}

// share partitions one multi-tenant round. Entitlement pass: each
// backlogged tenant, in deficit order, is offered its weight-proportional
// slice w/totalW of the free threads and memory (never less than one
// thread — the recoverable guaranteed share). Reclaim pass: leftover
// capacity (tenants without enough backlog to fill their slice) is
// re-offered in the same order — unused share is reclaimable, so the
// layer stays work-conserving. A grant that does not fit the threads
// still free, or names a job already granted, is dropped.
func (f *FairShareAQP) share(ctx *AQPContext, groups map[string][]*AQPJob, names []string) []AQPGrant {
	order := f.order(names)
	totalW := 0.0
	for _, name := range order {
		totalW += f.weight(name)
	}
	threads, mem := ctx.FreeThreads, ctx.FreeMemMB
	var out []AQPGrant
	granted := make(map[*AQPJob]bool)
	offer := func(pending []*AQPJob, offerThreads int, offerMem float64) {
		sub := *ctx
		sub.Pending, sub.FreeThreads, sub.FreeMemMB = pending, offerThreads, offerMem
		for _, g := range f.inner.Assign(&sub) {
			if granted[g.Job] || g.Threads <= 0 || g.Threads > threads {
				continue
			}
			threads -= g.Threads
			mem -= g.ReserveMemMB
			granted[g.Job] = true
			out = append(out, g)
		}
	}
	for _, name := range order {
		if threads <= 0 {
			break
		}
		w := f.weight(name)
		ent := min(max(int(float64(ctx.FreeThreads)*w/totalW), 1), threads)
		entMem := ctx.FreeMemMB * w / totalW
		if entMem > mem {
			entMem = mem
		}
		offer(groups[name], ent, entMem)
	}
	for _, name := range order {
		if threads <= 0 {
			break
		}
		var rest []*AQPJob
		for _, j := range groups[name] {
			if !granted[j] {
				rest = append(rest, j)
			}
		}
		if len(rest) == 0 {
			continue
		}
		offer(rest, threads, max(mem, 0))
	}
	return out
}
