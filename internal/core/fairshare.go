package core

import (
	"sort"

	"rotary/internal/admission"
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

// tenantSets derives one round's live/backlogged tenant sets and groups
// the pending jobs by tenant; names lists the backlogged tenants in
// first-seen order.
func tenantSets[J interface{ Tenant() string }](pending, running []J) (live, backlogged map[string]bool, groups map[string][]J, names []string) {
	live = make(map[string]bool)
	backlogged = make(map[string]bool)
	groups = make(map[string][]J)
	for _, j := range pending {
		t := admission.CanonicalTenant(j.Tenant())
		live[t] = true
		if !backlogged[t] {
			backlogged[t] = true
			names = append(names, t)
		}
		groups[t] = append(groups[t], j)
	}
	for _, j := range running {
		live[admission.CanonicalTenant(j.Tenant())] = true
	}
	return live, backlogged, groups, names
}

// fairPool is one round's free capacity as a resource model partitions
// it across tenants: threads and memory for AQP, the device list for DLT.
type fairPool[J comparable, G any] interface {
	// exhausted reports that nothing is left to offer.
	exhausted() bool
	// entitled runs the inner policy over pending within a tenant's
	// weight-proportional slice w/totalW of the round's free capacity
	// (never less than one unit — the recoverable guaranteed share).
	entitled(pending []J, w, totalW float64) []G
	// leftover runs the inner policy over pending within all that is
	// still free.
	leftover(pending []J) []G
	// job names the decision's job.
	job(g G) J
	// take books a decision against the remaining capacity, reporting
	// whether it fit.
	take(g G) bool
}

// shareFairly partitions one multi-tenant round. Entitlement pass: each
// backlogged tenant, in deficit order, is offered its weight-proportional
// slice of the free capacity. Reclaim pass: leftover capacity (tenants
// without enough backlog to fill their slice) is re-offered in the same
// order — unused share is reclaimable, so the layer stays
// work-conserving.
func shareFairly[J comparable, G any](l *fairLedger, groups map[string][]J, names []string, pool fairPool[J, G]) []G {
	order := l.order(names)
	totalW := 0.0
	for _, name := range order {
		totalW += l.weight(name)
	}
	var out []G
	granted := make(map[J]bool)
	accept := func(decisions []G) {
		for _, g := range decisions {
			j := pool.job(g)
			if granted[j] || !pool.take(g) {
				continue
			}
			granted[j] = true
			out = append(out, g)
		}
	}
	for _, name := range order {
		if pool.exhausted() {
			break
		}
		accept(pool.entitled(groups[name], l.weight(name), totalW))
	}
	for _, name := range order {
		if pool.exhausted() {
			break
		}
		var rest []J
		for _, j := range groups[name] {
			if !granted[j] {
				rest = append(rest, j)
			}
		}
		if len(rest) == 0 {
			continue
		}
		accept(pool.leftover(rest))
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
	live, backlogged, groups, names := tenantSets(ctx.Pending, ctx.Running)
	f.clamp(live, backlogged)
	var grants []AQPGrant
	if len(names) <= 1 {
		// Single-tenant rounds need no partitioning: the inner policy sees
		// the whole pool, and only the ledger charge differs from a bare run.
		grants = f.inner.Assign(ctx)
	} else {
		grants = shareFairly(&f.fairLedger, groups, names,
			&aqpPool{inner: f.inner, ctx: ctx, threads: ctx.FreeThreads, mem: ctx.FreeMemMB})
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

// aqpPool is a round's remaining threads and memory.
type aqpPool struct {
	inner   AQPScheduler
	ctx     *AQPContext
	threads int
	mem     float64
}

func (p *aqpPool) exhausted() bool        { return p.threads <= 0 }
func (p *aqpPool) job(g AQPGrant) *AQPJob { return g.Job }

func (p *aqpPool) take(g AQPGrant) bool {
	if g.Threads <= 0 || g.Threads > p.threads {
		return false
	}
	p.threads -= g.Threads
	p.mem -= g.ReserveMemMB
	return true
}

func (p *aqpPool) entitled(pending []*AQPJob, w, totalW float64) []AQPGrant {
	ent := int(float64(p.ctx.FreeThreads) * w / totalW)
	if ent < 1 {
		ent = 1
	}
	if ent > p.threads {
		ent = p.threads
	}
	entMem := p.ctx.FreeMemMB * w / totalW
	if entMem > p.mem {
		entMem = p.mem
	}
	return p.offer(pending, ent, entMem)
}

func (p *aqpPool) leftover(pending []*AQPJob) []AQPGrant {
	mem := p.mem
	if mem < 0 {
		mem = 0
	}
	return p.offer(pending, p.threads, mem)
}

func (p *aqpPool) offer(pending []*AQPJob, threads int, mem float64) []AQPGrant {
	sub := AQPContext{
		Now:          p.ctx.Now,
		Pending:      pending,
		Running:      p.ctx.Running,
		FreeThreads:  threads,
		TotalThreads: p.ctx.TotalThreads,
		FreeMemMB:    mem,
		TotalMemMB:   p.ctx.TotalMemMB,
	}
	return p.inner.Assign(&sub)
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
	var placements []DLTPlacement
	if len(names) <= 1 {
		placements = f.inner.Place(ctx)
	} else {
		remaining := make([]cluster.GPU, len(ctx.FreeGPUs))
		copy(remaining, ctx.FreeGPUs)
		placements = shareFairly(&f.fairLedger, groups, names, &dltPool{inner: f.inner, ctx: ctx, remaining: remaining})
	}
	for _, p := range placements {
		f.charge(admission.CanonicalTenant(p.Job.tenant), 1)
	}
	return placements
}

// dltPool is a round's remaining free devices. The policy is offered a
// copy of each slice — take mutates remaining.
type dltPool struct {
	inner     DLTScheduler
	ctx       *DLTContext
	remaining []cluster.GPU
}

func (p *dltPool) exhausted() bool             { return len(p.remaining) == 0 }
func (p *dltPool) job(pl DLTPlacement) *DLTJob { return pl.Job }

func (p *dltPool) take(pl DLTPlacement) bool {
	for i, g := range p.remaining {
		if g.ID == pl.Device {
			p.remaining = append(p.remaining[:i], p.remaining[i+1:]...)
			return true
		}
	}
	return false
}

func (p *dltPool) entitled(pending []*DLTJob, w, totalW float64) []DLTPlacement {
	ent := int(float64(len(p.ctx.FreeGPUs)) * w / totalW)
	if ent < 1 {
		ent = 1
	}
	if ent > len(p.remaining) {
		ent = len(p.remaining)
	}
	return p.offer(pending, p.remaining[:ent])
}

func (p *dltPool) leftover(pending []*DLTJob) []DLTPlacement {
	return p.offer(pending, p.remaining)
}

func (p *dltPool) offer(pending []*DLTJob, devices []cluster.GPU) []DLTPlacement {
	slice := make([]cluster.GPU, len(devices))
	copy(slice, devices)
	sub := DLTContext{Now: p.ctx.Now, Pending: pending, Running: p.ctx.Running, FreeGPUs: slice}
	return p.inner.Place(&sub)
}
