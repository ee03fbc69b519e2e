// Package admission implements the overload front door of the arbiter:
// a deadline/utility-aware admission controller with a bounded wait
// queue. The paper's arbiter (§III-D) assumes a closed, well-behaved job
// set — every submitted job enters the wait queue and eventually runs.
// Under open-loop arrivals that assumption breaks: when the offered load
// exceeds capacity, an unbounded queue grows without limit and every
// queued job's deadline becomes infeasible. The controller turns that
// failure mode into an explicit, typed decision at arrival time:
//
//   - a job whose estimated completion cannot meet its criteria deadline
//     under the current load is refused (ErrAdmissionRejected) — or, under
//     the Degrade policy, admitted as best-effort;
//   - a job arriving while the active set is at the configured bound is
//     refused (ErrQueueFull) — or, under the ShedLowestValue policy,
//     admitted by evicting the lowest-value queued job.
//
// The controller itself is pure decision logic over a Request snapshot;
// the executors own the queues and supply the load estimates, so the same
// controller front-ends the AQP, DLT, and serving-mode queues.
package admission

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rotary/internal/obs"
)

// Typed refusal causes. Callers match with errors.Is.
var (
	// ErrAdmissionRejected marks a job refused because its estimated
	// completion cannot meet its deadline under current load.
	ErrAdmissionRejected = errors.New("admission: deadline infeasible under current load")
	// ErrQueueFull marks a job refused because the wait queue is at its
	// configured bound.
	ErrQueueFull = errors.New("admission: queue full")
)

// Policy selects the backpressure response when a job cannot be admitted
// outright.
type Policy int

const (
	// Reject refuses the arriving job (the default).
	Reject Policy = iota
	// ShedLowestValue admits the arriving job over a full queue by
	// evicting the queued job with the lowest value — if one with strictly
	// lower value than the arrival exists; otherwise the arrival is the
	// cheapest job in sight and is refused instead.
	ShedLowestValue
	// Degrade admits deadline-infeasible jobs as best-effort: they keep
	// running but renounce any feasibility claim (and are first in line
	// for shedding). The queue bound stays hard under Degrade.
	Degrade
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case ShedLowestValue:
		return "shed"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reject":
		return Reject, nil
	case "shed", "shed-lowest-value":
		return ShedLowestValue, nil
	case "degrade", "best-effort":
		return Degrade, nil
	default:
		return Reject, fmt.Errorf("admission: unknown policy %q (want reject, shed, degrade)", s)
	}
}

// Config parameterizes a Controller.
type Config struct {
	// MaxQueueDepth bounds the active set (queued + running jobs); an
	// arrival that would push the count past the bound triggers the
	// backpressure policy. 0 means unbounded.
	MaxQueueDepth int
	// SlackFactor scales the completion estimate in the deadline
	// feasibility check: a job is infeasible when
	// SlackFactor × EstCompletionSecs > RemainingSecs. 0 disables the
	// check; 1 trusts the estimate exactly; larger values refuse earlier
	// (the estimate is optimistic under contention).
	SlackFactor float64
	// Policy is the backpressure response. See the Policy constants.
	Policy Policy
	// Tenants configures per-tenant quotas (token-bucket submit rate,
	// concurrent-job and queued-job caps). The zero table disables tenant
	// gating. See tenant.go.
	Tenants TenantTable
	// Obs selects the metrics registry the controller's verdict counters
	// live in. Nil uses the process-wide obs.Default().
	Obs *obs.Registry
}

// Verdict is the controller's decision for one arrival.
type Verdict int

const (
	// Admit enqueues the job normally.
	Admit Verdict = iota
	// RejectJob refuses the job; Decision.Err carries the typed cause.
	RejectJob
	// ShedVictim admits the job if the executor can evict a queued job
	// with strictly lower value; the executor reports the outcome through
	// ResolveShed.
	ShedVictim
	// DegradeBestEffort admits the job flagged best-effort.
	DegradeBestEffort
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case RejectJob:
		return "reject"
	case ShedVictim:
		return "shed-victim"
	case DegradeBestEffort:
		return "degrade"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Request is the load snapshot an executor presents for one arrival.
type Request struct {
	// ID identifies the arriving job (error messages only).
	ID string
	// QueueDepth is the active-set size (queued + running) before this
	// arrival.
	QueueDepth int
	// EstCompletionSecs estimates the job's queueing delay plus first
	// service under the current load.
	EstCompletionSecs float64
	// RemainingSecs is the time left until the job's deadline. Jobs
	// without a wall-time deadline pass +Inf (or any huge value) and are
	// never deadline-refused.
	RemainingSecs float64
	// Tenant attributes the arrival; empty canonicalizes to
	// DefaultTenant. Ignored unless Config.Tenants is set.
	Tenant string
	// Now is the arrival's virtual-clock time in seconds. It drives
	// token-bucket refill — never wall clock, so replays reproduce every
	// verdict bit-identically.
	Now float64
	// TenantPending is the tenant's queued-job count before this arrival
	// (for the MaxPending cap).
	TenantPending int
}

// Decision is the controller's answer.
type Decision struct {
	Verdict Verdict
	// Err carries the typed refusal cause when Verdict is RejectJob.
	Err error
	// Reason is a short human-readable cause for traces.
	Reason string
	// RetryAfterSecs hints when a quota-refused tenant should retry
	// (0 when the refusal is not time-based).
	RetryAfterSecs float64
}

// Stats counts the controller's decisions.
type Stats struct {
	Submitted int
	Admitted  int
	Rejected  int
	// Shed counts queued jobs evicted to admit a higher-value arrival.
	Shed int
	// Degraded counts deadline-infeasible jobs admitted as best-effort.
	Degraded int
	// QueueFullRejections is the subset of Rejected refused at the bound.
	QueueFullRejections int
	// MaxQueueDepth is the deepest active set observed at decision time.
	MaxQueueDepth int
}

// Controller applies a Config to arrival Requests. It is pure decision
// logic: it owns no queue and performs no I/O, so one controller can
// front-end any executor. Safe for concurrent use: the simulated
// arbitration loop is single-threaded, but live serving submits from
// one goroutine per connection, so the decision ledger is mutex-guarded.
type Controller struct {
	mu       sync.Mutex
	cfg      Config
	stats    [nTallies]int          // the decision ledger, by tally
	met      [nTallies]*obs.Counter // its rotary_admission_* counters (nil-safe)
	depth    *obs.Gauge             // active-set size at the last decision
	maxDepth int                    // the deepest active set decided on
	tenants  map[string]*tenantState
}

// NewController validates and applies the config.
func NewController(cfg Config) *Controller {
	if cfg.SlackFactor < 0 || math.IsNaN(cfg.SlackFactor) {
		cfg.SlackFactor = 0
	}
	if cfg.MaxQueueDepth < 0 {
		cfg.MaxQueueDepth = 0
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	const p = "rotary_admission_"
	c := &Controller{cfg: cfg, tenants: make(map[string]*tenantState),
		depth: reg.Gauge(p+"queue_depth", "active-set size observed at the last decision")}
	c.met[tSubmitted] = reg.Counter(p+"submitted_total", "arrivals presented to the admission gate")
	c.met[tAdmitted] = reg.Counter(p+"admitted_total", "arrivals admitted (including degraded and shed-admitted)")
	c.met[tRejected] = reg.Counter(p+"rejected_total", "arrivals refused")
	c.met[tShed] = reg.Counter(p+"shed_total", "queued jobs evicted to admit an arrival")
	c.met[tDegraded] = reg.Counter(p+"degraded_total", "deadline-infeasible arrivals admitted best-effort")
	c.met[tQueueFull] = reg.Counter(p+"queue_full_rejections_total", "refusals at the queue bound")
	return c
}

// Config returns the applied configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the decision counters so far.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.stats
	return Stats{Submitted: n[tSubmitted], Admitted: n[tAdmitted], Rejected: n[tRejected], Shed: n[tShed],
		Degraded: n[tDegraded], QueueFullRejections: n[tQueueFull], MaxQueueDepth: c.maxDepth}
}

// Decide evaluates one arrival. The tenant gate runs first: its
// verdicts must be a pure function of tenant state and virtual time so
// journal replay reproduces them regardless of how the shared queue
// happens to look after a restart. The deadline feasibility check runs
// next — shedding a queued job frees a slot but no time, so an
// infeasible job is refused (or degraded) regardless of queue headroom.
// The queue bound is checked last and is hard under every policy
// except ShedLowestValue. A token is consumed (and the tenant's active
// slot taken) only on final admission; refusals leave the bucket
// untouched.
func (c *Controller) Decide(r Request) Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.depth.Set(float64(r.QueueDepth))
	c.maxDepth = max(c.maxDepth, r.QueueDepth)
	d, o := c.decide(r)
	c.book(r, o)
	return d
}

// decide is Decide's verdict and the outcome to book; it books nothing.
func (c *Controller) decide(r Request) (Decision, outcome) {
	if c.cfg.Tenants.Enabled() {
		if d, o := c.decideTenant(r); o != admitted {
			return d, o
		}
	}

	o := admitted
	if c.cfg.SlackFactor > 0 && r.RemainingSecs > 0 && !math.IsInf(r.RemainingSecs, 1) &&
		c.cfg.SlackFactor*r.EstCompletionSecs > r.RemainingSecs {
		if c.cfg.Policy != Degrade {
			return Decision{
				Verdict: RejectJob,
				Err: fmt.Errorf("admission: %s: estimated completion %.0fs × slack %.2g exceeds remaining %.0fs: %w",
					r.ID, r.EstCompletionSecs, c.cfg.SlackFactor, r.RemainingSecs, ErrAdmissionRejected),
				Reason: "deadline-infeasible",
			}, rejectedDeadline
		}
		o = degraded
	}

	if c.cfg.MaxQueueDepth > 0 && r.QueueDepth >= c.cfg.MaxQueueDepth {
		if c.cfg.Policy == ShedLowestValue {
			return Decision{Verdict: ShedVictim, Reason: "queue-full"}, shedPending
		}
		return Decision{
			Verdict: RejectJob,
			Err: fmt.Errorf("admission: %s: active set %d at bound %d: %w",
				r.ID, r.QueueDepth, c.cfg.MaxQueueDepth, ErrQueueFull),
			Reason: "queue-full",
		}, rejectedQueueFull
	}

	if o == degraded {
		return Decision{Verdict: DegradeBestEffort, Reason: "deadline-infeasible"}, degraded
	}
	return Decision{Verdict: Admit}, admitted
}

// ResolveShed finalizes a ShedVictim verdict for the arrival described
// by r: shed reports whether the executor found a strictly-lower-value
// victim to evict (the arrival was admitted in its place); false means
// the arrival itself was the cheapest job in sight and was refused. On
// admission the arrival's tenant is charged exactly as a direct Admit
// would have (the victim's slot is released separately via JobDone).
func (c *Controller) ResolveShed(r Request, shed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shed {
		c.book(r, shedAdmitted)
	} else {
		c.book(r, shedRefused)
	}
}

// outcome is how one arrival's decision ends, as book counts it.
type outcome int

const (
	admitted outcome = iota
	degraded
	shedPending  // a ShedVictim verdict: submitted, and resolved by ResolveShed
	shedAdmitted // ResolveShed found a victim
	shedRefused  // ResolveShed found none
	rejectedDeadline
	rejectedQueueFull
	rejectedTenantRate
	rejectedTenantActive
	rejectedTenantQueue
)

// tally is one count in a decision ledger.
type tally int

const (
	tSubmitted tally = iota
	tAdmitted
	tRejected
	tShed
	tDegraded
	tQueueFull
	tRate
	tActiveCap
	tQueueCap
	nTallies
)

// tallies lists what each outcome counts. book adds them to the
// controller's ledger and, under tenant gating, the arrival tenant's;
// each ledger shows its own subset (Stats has no tenant-gate causes,
// TenantStats no shed, degraded or queue-bound split).
var tallies = [...][]tally{
	admitted:             {tSubmitted, tAdmitted},
	degraded:             {tSubmitted, tAdmitted, tDegraded},
	shedPending:          {tSubmitted},
	shedAdmitted:         {tAdmitted, tShed},
	shedRefused:          {tRejected, tQueueFull},
	rejectedDeadline:     {tSubmitted, tRejected},
	rejectedQueueFull:    {tSubmitted, tRejected, tQueueFull},
	rejectedTenantRate:   {tSubmitted, tRejected, tRate},
	rejectedTenantActive: {tSubmitted, tRejected, tActiveCap},
	rejectedTenantQueue:  {tSubmitted, tRejected, tQueueCap},
}

// book counts one decision's outcome in every ledger that counts it —
// the controller's, the arrival tenant's, both sets of counters — and
// charges the tenant on admission: one token, one active slot. As their
// only writer (the queue-depth gauge, the high-water mark and the tenant
// active gauge outside an admission are levels, not decisions), no
// decision can be counted in one ledger and forgotten in another.
// Caller holds c.mu.
func (c *Controller) book(r Request, o outcome) {
	var st *tenantState
	if c.cfg.Tenants.Enabled() {
		st = c.tenant(r.Tenant)
	}
	for _, t := range tallies[o] {
		c.stats[t]++
		c.met[t].Inc()
		if st != nil {
			st.stats[t]++
			st.met[t].Inc()
		}
	}
	if st != nil && (o == admitted || o == degraded || o == shedAdmitted) {
		if q := c.cfg.Tenants.Quota(r.Tenant); q.RatePerSec > 0 {
			st.consume(r.Now, q)
		}
		st.active++
		st.activeJobs.Set(float64(st.active))
	}
}

// ShedRefusalErr is the typed error an executor attaches to an arrival
// refused because no lower-value victim existed.
func ShedRefusalErr(id string, depth, bound int) error {
	return fmt.Errorf("admission: %s: active set %d at bound %d and no lower-value victim: %w",
		id, depth, bound, ErrQueueFull)
}
