package core

// OverloadStats counts an executor's overload-protection activity: the
// epoch watchdog's preemptions, the admission gate's refusals and
// evictions as seen from the executor, the starvation guard's forced
// grants, and the wait queue's high-water mark. All times are virtual
// seconds. The admission controller keeps its own decision counters
// (admission.Stats); these are the executor-side effects.
type OverloadStats struct {
	// WatchdogPreemptions counts running epochs cut short because they
	// exceeded their virtual-time budget (predicted cost × slack).
	WatchdogPreemptions int
	// WatchdogWastedSecs is the virtual processing time lost to preempted
	// epochs (charged to the job; it rolls back at its next grant).
	WatchdogWastedSecs float64
	// Rejected counts arrivals refused at the admission gate.
	Rejected int
	// Shed counts queued jobs evicted to admit higher-value arrivals.
	Shed int
	// Degraded counts arrivals admitted as best-effort.
	Degraded int
	// ForcedGrants counts starvation-guard interventions: minimal grants
	// forced for jobs the policy passed over too many consecutive rounds.
	ForcedGrants int
	// MaxPendingDepth is the deepest wait queue observed.
	MaxPendingDepth int
}
