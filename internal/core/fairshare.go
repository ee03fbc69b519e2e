package core

import (
	"sort"

	"rotary/internal/cluster"
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

// fairLedger is the tenant usage account shared by both wrappers.
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
			w[CanonicalTenantName(name)] = v
		}
	}
	return fairLedger{weights: w, usage: make(map[string]float64), wasBack: make(map[string]bool)}
}

// CanonicalTenantName maps an attribution string to its ledger key
// (core-side mirror of admission.CanonicalTenant, kept dependency-free).
func CanonicalTenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
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

// tenantSets derives one round's live/backlogged tenant sets and groups
// the pending jobs by tenant; names lists the backlogged tenants in
// first-seen order.
func tenantSets[J interface{ Tenant() string }](pending, running []J) (live, backlogged map[string]bool, groups map[string][]J, names []string) {
	live = make(map[string]bool)
	backlogged = make(map[string]bool)
	groups = make(map[string][]J)
	for _, j := range pending {
		t := CanonicalTenantName(j.Tenant())
		live[t] = true
		if !backlogged[t] {
			backlogged[t] = true
			names = append(names, t)
		}
		groups[t] = append(groups[t], j)
	}
	for _, j := range running {
		live[CanonicalTenantName(j.Tenant())] = true
	}
	return live, backlogged, groups, names
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
	live, backlogged, groups, names := tenantSets(ctx.Pending, ctx.Running)
	f.clamp(live, backlogged)
	grants := f.assignFair(ctx, groups, names)
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
		f.charge(CanonicalTenantName(g.Job.tenant), dom)
	}
	return grants
}

func (f *FairShareAQP) assignFair(ctx *AQPContext, groups map[string][]*AQPJob, names []string) []AQPGrant {
	// Single-tenant rounds need no partitioning: the inner policy sees
	// the whole pool, and only the ledger charge differs from a bare run.
	if len(names) <= 1 {
		return f.inner.Assign(ctx)
	}
	order := f.order(names)
	totalW := 0.0
	for _, name := range order {
		totalW += f.weight(name)
	}
	remThreads := ctx.FreeThreads
	remMem := ctx.FreeMemMB
	var out []AQPGrant
	granted := make(map[*AQPJob]bool)
	accept := func(grants []AQPGrant) {
		for _, g := range grants {
			if g.Threads <= 0 || g.Threads > remThreads || granted[g.Job] {
				continue
			}
			granted[g.Job] = true
			out = append(out, g)
			remThreads -= g.Threads
			remMem -= g.ReserveMemMB
		}
	}
	// Entitlement pass: each backlogged tenant, in deficit order, is
	// offered its weight-proportional slice of this round's free pool
	// (never less than one thread — the recoverable guaranteed share).
	for _, name := range order {
		if remThreads <= 0 {
			break
		}
		w := f.weight(name)
		ent := int(float64(ctx.FreeThreads) * w / totalW)
		if ent < 1 {
			ent = 1
		}
		if ent > remThreads {
			ent = remThreads
		}
		entMem := ctx.FreeMemMB * w / totalW
		if entMem > remMem {
			entMem = remMem
		}
		sub := AQPContext{
			Now:          ctx.Now,
			Pending:      groups[name],
			Running:      ctx.Running,
			FreeThreads:  ent,
			TotalThreads: ctx.TotalThreads,
			FreeMemMB:    entMem,
			TotalMemMB:   ctx.TotalMemMB,
		}
		accept(f.inner.Assign(&sub))
	}
	// Reclaim pass: leftover capacity (tenants without enough backlog to
	// fill their slice) is re-offered in the same order — unused share is
	// reclaimable, so the layer stays work-conserving.
	for _, name := range order {
		if remThreads <= 0 {
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
		mem := remMem
		if mem < 0 {
			mem = 0
		}
		sub := AQPContext{
			Now:          ctx.Now,
			Pending:      rest,
			Running:      ctx.Running,
			FreeThreads:  remThreads,
			TotalThreads: ctx.TotalThreads,
			FreeMemMB:    mem,
			TotalMemMB:   ctx.TotalMemMB,
		}
		accept(f.inner.Assign(&sub))
	}
	return out
}

// FairShareDLT wraps a DLT policy with weighted fair share over GPU
// slots: the dominant resource is the device count, entitlements are
// weight-proportional slices of this round's free device list.
type FairShareDLT struct {
	inner DLTScheduler
	fairLedger
}

// NewFairShareDLT wraps inner with the given tenant weight map.
func NewFairShareDLT(inner DLTScheduler, weights map[string]float64) *FairShareDLT {
	return &FairShareDLT{inner: inner, fairLedger: newFairLedger(weights)}
}

// Name implements DLTScheduler.
func (f *FairShareDLT) Name() string { return f.inner.Name() + "+fair" }

// Place implements DLTScheduler.
func (f *FairShareDLT) Place(ctx *DLTContext) []DLTPlacement {
	live, backlogged, groups, names := tenantSets(ctx.Pending, ctx.Running)
	f.clamp(live, backlogged)
	placements := f.placeFair(ctx, groups, names)
	for _, p := range placements {
		f.charge(CanonicalTenantName(p.Job.tenant), 1)
	}
	return placements
}

func (f *FairShareDLT) placeFair(ctx *DLTContext, groups map[string][]*DLTJob, names []string) []DLTPlacement {
	if len(names) <= 1 {
		return f.inner.Place(ctx)
	}
	order := f.order(names)
	totalW := 0.0
	for _, name := range order {
		totalW += f.weight(name)
	}
	remaining := make([]cluster.GPU, len(ctx.FreeGPUs))
	copy(remaining, ctx.FreeGPUs)
	var out []DLTPlacement
	placed := make(map[*DLTJob]bool)
	takeDevice := func(id int) bool {
		for i, g := range remaining {
			if g.ID == id {
				remaining = append(remaining[:i], remaining[i+1:]...)
				return true
			}
		}
		return false
	}
	accept := func(ps []DLTPlacement) {
		for _, p := range ps {
			if placed[p.Job] || !takeDevice(p.Device) {
				continue
			}
			placed[p.Job] = true
			out = append(out, p)
		}
	}
	// Entitlement pass: each backlogged tenant, in deficit order, sees a
	// weight-proportional slice of the free device list (at least one
	// device). The slice is copied — accept mutates remaining.
	for _, name := range order {
		if len(remaining) == 0 {
			break
		}
		ent := int(float64(len(ctx.FreeGPUs)) * f.weight(name) / totalW)
		if ent < 1 {
			ent = 1
		}
		if ent > len(remaining) {
			ent = len(remaining)
		}
		slice := make([]cluster.GPU, ent)
		copy(slice, remaining[:ent])
		sub := DLTContext{Now: ctx.Now, Pending: groups[name], Running: ctx.Running, FreeGPUs: slice}
		accept(f.inner.Place(&sub))
	}
	// Reclaim pass: leftover devices re-offered in the same order.
	for _, name := range order {
		if len(remaining) == 0 {
			break
		}
		var rest []*DLTJob
		for _, j := range groups[name] {
			if !placed[j] {
				rest = append(rest, j)
			}
		}
		if len(rest) == 0 {
			continue
		}
		slice := make([]cluster.GPU, len(remaining))
		copy(slice, remaining)
		sub := DLTContext{Now: ctx.Now, Pending: rest, Running: ctx.Running, FreeGPUs: slice}
		accept(f.inner.Place(&sub))
	}
	return out
}
