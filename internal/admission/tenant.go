// Tenant quotas: the multi-tenant front door layered under the
// admission controller. Every arrival is attributed to a tenant (empty
// attribution canonicalizes to DefaultTenant) and must clear the
// tenant's quota before the global deadline/queue checks run:
//
//   - a virtual-clock token bucket bounds the tenant's submit rate
//     (RatePerSec refill up to Burst); an arrival finding less than one
//     token is refused with ErrTenantQuotaExceeded and a retry_after
//     hint derived from the refill rate;
//   - MaxActive caps the tenant's concurrently admitted jobs
//     (ErrTenantQuotaExceeded);
//   - MaxPending caps the tenant's queued jobs (ErrTenantQueueFull).
//
// Determinism contract: bucket refill is driven exclusively by the
// virtual clock carried in Request.Now — never wall clock — and bucket
// state mutates only when a token is consumed (final admit). Refusals
// peek at the prospective level without storing it, so the bucket state
// after any prefix of decisions is a pure fold over the admitted
// arrivals' virtual times. That is what lets journal replay rebuild the
// exact bucket (ReplayAdmitted) and what makes quota verdicts
// bit-identical across restarts.
package admission

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rotary/internal/obs"
)

// Typed tenant refusal causes. Callers match with errors.Is.
var (
	// ErrTenantQuotaExceeded marks an arrival refused by the tenant's
	// submit-rate bucket or concurrent-job cap.
	ErrTenantQuotaExceeded = errors.New("admission: tenant quota exceeded")
	// ErrTenantQueueFull marks an arrival refused by the tenant's queued-job
	// cap.
	ErrTenantQueueFull = errors.New("admission: tenant queue full")
)

// DefaultTenant is the tenant unattributed work belongs to. Journal
// records written before the tenant dimension existed replay under this
// name, so pre-tenant state directories stay loadable.
const DefaultTenant = "default"

// CanonicalTenant maps an attribution string to its ledger key.
func CanonicalTenant(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// TenantQuota bounds one tenant. Zero-valued fields mean "unlimited"
// (and Weight 0 means the default weight 1), so the zero TenantQuota is
// a no-op quota.
type TenantQuota struct {
	// Weight is the tenant's fair-share weight in the arbitration layer
	// (see core.FairShareAQP); quotas and weights travel together so one
	// -tenants flag configures both. 0 means 1.
	Weight float64
	// RatePerSec refills the submit-rate token bucket; 0 disables the
	// rate check.
	RatePerSec float64
	// Burst caps the bucket (and is its initial level). 0 with a positive
	// RatePerSec means a burst of 1 — strict pacing.
	Burst float64
	// MaxActive caps the tenant's concurrently admitted, non-terminal
	// jobs. 0 means unlimited.
	MaxActive int
	// MaxPending caps the tenant's queued (not yet running) jobs. 0 means
	// unlimited.
	MaxPending int
}

// normalized applies the zero-value defaults.
func (q TenantQuota) normalized() TenantQuota {
	if q.Weight <= 0 {
		q.Weight = 1
	}
	if q.RatePerSec > 0 && q.Burst <= 0 {
		q.Burst = 1
	}
	return q
}

// TenantTable maps tenants to quotas. The zero table disables tenant
// gating entirely (single-tenant deployments pay nothing); a table with
// only Default set applies that quota to every tenant.
type TenantTable struct {
	// Default is the quota for tenants without an explicit entry.
	Default TenantQuota
	// Tenants holds the explicit per-tenant quotas.
	Tenants map[string]TenantQuota
}

// Enabled reports whether the table configures any gating at all.
func (t TenantTable) Enabled() bool {
	return len(t.Tenants) > 0 || t.Default != (TenantQuota{})
}

// Quota resolves the (normalized) quota for a tenant.
func (t TenantTable) Quota(tenant string) TenantQuota {
	if q, ok := t.Tenants[CanonicalTenant(tenant)]; ok {
		return q.normalized()
	}
	return t.Default.normalized()
}

// Weights extracts the fair-share weight map (explicit tenants only;
// the arbitration layer applies the default weight 1 to the rest).
func (t TenantTable) Weights() map[string]float64 {
	if len(t.Tenants) == 0 {
		return nil
	}
	w := make(map[string]float64, len(t.Tenants))
	for name, q := range t.Tenants {
		w[name] = q.normalized().Weight
	}
	return w
}

// ParseTenantSpec parses the -tenants CLI syntax: semicolon-separated
// tenant clauses, each `name:key=value,...` with keys weight, rate,
// burst, max-active, max-pending. The pseudo-tenant `default` sets the
// table's fallback quota. Example:
//
//	alpha:weight=2,rate=5,burst=10,max-active=8;default:rate=1,burst=4
func ParseTenantSpec(spec string) (TenantTable, error) {
	var tbl TenantTable
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return tbl, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, body, ok := strings.Cut(clause, ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return tbl, fmt.Errorf("admission: tenant spec clause %q: want name:key=value,...", clause)
		}
		var q TenantQuota
		for _, kv := range strings.Split(body, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return tbl, fmt.Errorf("admission: tenant %s: bad assignment %q", name, kv)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || f < 0 {
				return tbl, fmt.Errorf("admission: tenant %s: %s wants a non-negative number, got %q", name, key, val)
			}
			switch strings.TrimSpace(key) {
			case "weight":
				q.Weight = f
			case "rate":
				q.RatePerSec = f
			case "burst":
				q.Burst = f
			case "max-active", "concurrent":
				q.MaxActive = int(f)
			case "max-pending", "queue":
				q.MaxPending = int(f)
			default:
				return tbl, fmt.Errorf("admission: tenant %s: unknown key %q (want weight, rate, burst, max-active, max-pending)", name, key)
			}
		}
		if name == DefaultTenant {
			tbl.Default = q
			continue
		}
		if tbl.Tenants == nil {
			tbl.Tenants = make(map[string]TenantQuota)
		}
		tbl.Tenants[name] = q
	}
	return tbl, nil
}

// TenantStats is one tenant's decision ledger. Every arrival attributed
// to the tenant lands in exactly one of Admitted / RateRejections /
// ActiveCapRejections / QueueCapRejections / Rejected-by-global-checks,
// so Submitted always equals the sum — the reconciliation invariant the
// chaos suite asserts against the obs counters and the journal.
type TenantStats struct {
	Submitted int
	Admitted  int
	// Rejected counts every refusal, tenant-gate or global.
	Rejected int
	// RateRejections / ActiveCapRejections / QueueCapRejections split the
	// tenant-gate refusals by cause.
	RateRejections      int
	ActiveCapRejections int
	QueueCapRejections  int
	// Active is the current admitted, non-terminal job count.
	Active int
}

// tenantLabel sanitizes a tenant id into a legal Prometheus label value
// (the registry's name grammar forbids quotes and backslashes; control
// bytes would corrupt the exposition). Long ids truncate — labels are
// for operators, the ledger keeps the exact id.
func tenantLabel(t string) string {
	var b strings.Builder
	for _, r := range t {
		if r < 0x20 || r == '"' || r == '\\' || r == 0x7f {
			b.WriteByte('_')
		} else {
			b.WriteRune(r)
		}
		if b.Len() >= 64 {
			break
		}
	}
	return b.String()
}

// tenantState is the controller's per-tenant ledger entry: the token
// bucket, the concurrent-job count, and the decision ledger.
type tenantState struct {
	// Token bucket. primed distinguishes "never consumed" (level == Burst
	// regardless of time) from a live bucket; tokens/last only change on
	// consume so replaying the admitted arrivals reproduces them exactly.
	primed bool
	tokens float64
	last   float64

	active     int
	activeJobs *obs.Gauge             // active, as a labeled gauge
	stats      [nTallies]int          // the decision ledger, by tally
	met        [nTallies]*obs.Counter // its labeled counters (nil-safe)
}

func newTenantState(reg *obs.Registry, tenant string) *tenantState {
	if reg == nil {
		reg = obs.Default()
	}
	l := fmt.Sprintf("{tenant=%q}", tenantLabel(tenant))
	const p = "rotary_admission_tenant_"
	st := &tenantState{activeJobs: reg.Gauge(p+"active_jobs"+l, "tenant's admitted non-terminal jobs")}
	st.met[tSubmitted] = reg.Counter(p+"submitted_total"+l, "arrivals attributed to the tenant")
	st.met[tAdmitted] = reg.Counter(p+"admitted_total"+l, "tenant arrivals admitted")
	st.met[tRejected] = reg.Counter(p+"rejected_total"+l, "tenant arrivals refused (any cause)")
	st.met[tRate] = reg.Counter(p+"rate_rejections_total"+l, "tenant arrivals refused by the submit-rate bucket")
	st.met[tActiveCap] = reg.Counter(p+"active_cap_rejections_total"+l, "tenant arrivals refused by the concurrent-job cap")
	st.met[tQueueCap] = reg.Counter(p+"queue_cap_rejections_total"+l, "tenant arrivals refused by the queued-job cap")
	return st
}

// peek computes the bucket level at virtual time now without mutating
// state.
func (s *tenantState) peek(now float64, q TenantQuota) float64 {
	if !s.primed {
		return q.Burst
	}
	t := s.tokens + (now-s.last)*q.RatePerSec
	if t > q.Burst {
		t = q.Burst
	}
	return t
}

// consume takes one token at virtual time now. Callers check peek first;
// consume never refuses.
func (s *tenantState) consume(now float64, q TenantQuota) {
	s.tokens = s.peek(now, q) - 1
	s.last = now
	s.primed = true
}

// tenant resolves (creating if needed) the ledger entry. Caller holds
// c.mu.
func (c *Controller) tenant(name string) *tenantState {
	name = CanonicalTenant(name)
	st, ok := c.tenants[name]
	if !ok {
		st = newTenantState(c.cfg.Obs, name)
		c.tenants[name] = st
	}
	return st
}

// retryHint estimates how long until the tenant's next token under q.
func retryHint(q TenantQuota, deficit float64) float64 {
	if q.RatePerSec > 0 {
		h := deficit / q.RatePerSec
		if h < 0 {
			h = 0
		}
		return h
	}
	return 1
}

// decideTenant runs the tenant gate for one arrival: admitted means it
// cleared its quota, and the verdict is left to the global checks.
// Caller holds c.mu; it books nothing.
func (c *Controller) decideTenant(r Request) (Decision, outcome) {
	st := c.tenant(r.Tenant)
	q := c.cfg.Tenants.Quota(r.Tenant)

	if q.RatePerSec > 0 {
		if level := st.peek(r.Now, q); level < 1 {
			return Decision{
				Verdict: RejectJob,
				Err: fmt.Errorf("admission: %s: tenant %s over submit rate (%.2f tokens, rate %.3g/s): %w",
					r.ID, CanonicalTenant(r.Tenant), level, q.RatePerSec, ErrTenantQuotaExceeded),
				Reason:         "tenant-rate",
				RetryAfterSecs: retryHint(q, 1-level),
			}, rejectedTenantRate
		}
	}
	if q.MaxActive > 0 && st.active >= q.MaxActive {
		return Decision{
			Verdict: RejectJob,
			Err: fmt.Errorf("admission: %s: tenant %s at concurrent-job cap %d: %w",
				r.ID, CanonicalTenant(r.Tenant), q.MaxActive, ErrTenantQuotaExceeded),
			Reason:         "tenant-concurrent",
			RetryAfterSecs: retryHint(q, 1),
		}, rejectedTenantActive
	}
	if q.MaxPending > 0 && r.TenantPending >= q.MaxPending {
		return Decision{
			Verdict: RejectJob,
			Err: fmt.Errorf("admission: %s: tenant %s queue depth %d at cap %d: %w",
				r.ID, CanonicalTenant(r.Tenant), r.TenantPending, q.MaxPending, ErrTenantQueueFull),
			Reason:         "tenant-queue-full",
			RetryAfterSecs: retryHint(q, 1),
		}, rejectedTenantQueue
	}
	return Decision{}, admitted
}

// JobDone releases an admitted job's tenant slot when it reaches a
// terminal status. Executors call it for every job that was actually
// admitted (including shed victims); gate-refused arrivals never held a
// slot.
func (c *Controller) JobDone(tenant string) {
	if !c.cfg.Tenants.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.tenant(tenant)
	if st.active > 0 {
		st.active--
	}
	st.activeJobs.Set(float64(st.active))
}

// AdoptRecovered restores one live job's active slot after a restart.
// Recovery re-registers journaled jobs bypassing the gate, so the
// concurrent-job cap would otherwise leak open. Decision stats are not
// touched — the ledger counts this era's decisions.
func (c *Controller) AdoptRecovered(tenant string) {
	if !c.cfg.Tenants.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.tenant(tenant)
	st.active++
	st.activeJobs.Set(float64(st.active))
}

// ReplayAdmitted rebuilds the token bucket from the journal: one call
// per historically admitted arrival, in arrival order, at its recorded
// virtual time. Stats and caps are untouched — only the bucket fold is
// replayed, reproducing the exact (tokens, last) pair the pre-crash
// controller held so post-restart verdicts are bit-identical.
func (c *Controller) ReplayAdmitted(tenant string, at float64) {
	if !c.cfg.Tenants.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.cfg.Tenants.Quota(tenant)
	if q.RatePerSec > 0 {
		c.tenant(tenant).consume(at, q)
	}
}

// TenantStats snapshots every tenant's ledger, keyed by canonical
// tenant id.
func (c *Controller) TenantStats() map[string]TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantStats, len(c.tenants))
	for name, st := range c.tenants {
		n := st.stats
		out[name] = TenantStats{Submitted: n[tSubmitted], Admitted: n[tAdmitted], Rejected: n[tRejected],
			RateRejections: n[tRate], ActiveCapRejections: n[tActiveCap], QueueCapRejections: n[tQueueCap], Active: st.active}
	}
	return out
}
