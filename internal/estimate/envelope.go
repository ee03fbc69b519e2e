package estimate

import "math"

// Envelope is the non-parametric convergence estimator of §IV-A: it
// tracks the least (p) and largest (q) aggregation results within a
// sliding window of recent epochs and uses the ratio p/q both as an
// approximate accuracy-progress estimate and as a convergence signal —
// when the window's values stop moving, p/q approaches 1.
//
// The paper notes the estimator "can make mistakes, such as stopping the
// jobs which are not supposed to be permanently terminated" (false
// attainment, Fig. 7a) and that "this issue can be mitigated by
// lengthening the time window" — the ablation bench sweeps Window.
type Envelope struct {
	window int
	vals   []float64
	total  int
}

// NewEnvelope returns an envelope over the last window observations.
// window < 2 is raised to 2.
func NewEnvelope(window int) *Envelope {
	if window < 2 {
		window = 2
	}
	return &Envelope{window: window}
}

// Observe appends one per-epoch aggregation result. Non-finite values
// (a divide-by-zero aggregate over an empty partial group) are dropped
// without counting: one NaN in the window would otherwise pin Ratio at 0
// (NaN fails every comparison) and permanently block convergence.
func (e *Envelope) Observe(v float64) {
	if !finite(v) {
		return
	}
	e.total++
	e.vals = append(e.vals, v)
	if len(e.vals) > e.window {
		e.vals = e.vals[len(e.vals)-e.window:]
	}
}

// Observations reports the total number of observations seen.
func (e *Envelope) Observations() int { return e.total }

// Ratio reports p/q over the current window, where p and q are the least
// and largest absolute observations. It reports 0 until the window has at
// least two observations, and 0 whenever the window spans a sign change
// (the aggregate has not stabilized in any sense).
func (e *Envelope) Ratio() float64 {
	if len(e.vals) < 2 {
		return 0
	}
	lo, hi := e.vals[0], e.vals[0]
	for _, v := range e.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 0 && hi > 0 {
		return 0
	}
	p, q := math.Abs(lo), math.Abs(hi)
	if p > q {
		p, q = q, p
	}
	if q == 0 {
		return 1 // the aggregate is exactly stable at zero
	}
	return p / q
}

// Converged reports whether the window is full and its ratio has reached
// the convergence threshold.
func (e *Envelope) Converged(threshold float64) bool {
	return len(e.vals) >= e.window && e.Ratio() >= threshold
}
