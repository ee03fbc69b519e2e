// Package metrics computes the paper's evaluation measures — attainment
// (Fig. 6, 8, 9), false attainment and waiting time (Fig. 7), the §V-B
// attainment-progress distributions behind the Fig. 10 violin plots, and
// the Fig. 11 placement Gantt — plus plain-text renderers for all of
// them.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rotary/internal/core"
)

// AQPJobOutcome is one job's measured result.
type AQPJobOutcome struct {
	ID    string
	Query string
	Class string
	// Attained: the job's ground-truth accuracy met its threshold before
	// its deadline — the Fig. 6 measure.
	Attained bool
	// FalseAttained: the system stopped the job as attained (or
	// converged) but the ground-truth accuracy was below the threshold —
	// the Fig. 7a measure.
	FalseAttained bool
	// WaitSecs is runtime-under-policy minus isolated runtime (Fig. 7b).
	WaitSecs float64
	// RuntimeSecs is terminal time minus arrival.
	RuntimeSecs float64
	StopAcc     float64
	Status      core.JobStatus
}

// AQPReport aggregates a policy's run over one workload.
type AQPReport struct {
	Policy   string
	Outcomes []AQPJobOutcome
}

// AnalyzeAQP derives the report from terminal jobs. isolatedSecs maps job
// ID to its isolated runtime (may be nil, zeroing the waiting-time
// column).
func AnalyzeAQP(policy string, jobs []*core.AQPJob, isolatedSecs map[string]float64) AQPReport {
	rep := AQPReport{Policy: policy}
	for _, j := range jobs {
		out := AQPJobOutcome{
			ID:      j.ID(),
			Query:   j.Query().Name(),
			Class:   j.Class(),
			StopAcc: j.StopAccuracy(),
			Status:  j.Status(),
		}
		threshold := j.Criteria().Threshold
		runtime := (j.EndTime() - j.Arrival()).Seconds()
		out.RuntimeSecs = runtime
		metThreshold := j.StopAccuracy() >= threshold
		beforeDeadline := runtime <= j.DeadlineSecs()+1e-9
		out.Attained = metThreshold && beforeDeadline && j.Status() != core.StatusExpired
		// False attainment is the envelope function's mistake (§V-A3):
		// the job was stopped as converged although its ground-truth
		// accuracy had not met the threshold.
		out.FalseAttained = j.Status() == core.StatusConvergedStop && !metThreshold
		if isolatedSecs != nil {
			if iso, ok := isolatedSecs[j.ID()]; ok {
				w := runtime - iso
				if w < 0 {
					w = 0
				}
				out.WaitSecs = w
			}
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return rep
}

// AttainedByClass counts attained jobs per class ("light", "medium",
// "heavy") plus "total".
func (r AQPReport) AttainedByClass() map[string]int {
	counts := map[string]int{}
	for _, o := range r.Outcomes {
		if o.Attained {
			counts[o.Class]++
			counts["total"]++
		}
	}
	return counts
}

// TotalByClass counts all jobs per class plus "total".
func (r AQPReport) TotalByClass() map[string]int {
	counts := map[string]int{}
	for _, o := range r.Outcomes {
		counts[o.Class]++
		counts["total"]++
	}
	return counts
}

// FalseAttained counts Fig. 7a's false attainments.
func (r AQPReport) FalseAttained() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.FalseAttained {
			n++
		}
	}
	return n
}

// AvgWaitSecs is Fig. 7b's average waiting time: runtime under the policy
// minus isolated runtime, averaged over the jobs that attained their
// criteria (unattained jobs hold resources until expiry by definition and
// would swamp the comparison).
func (r AQPReport) AvgWaitSecs() float64 {
	var sum float64
	n := 0
	for _, o := range r.Outcomes {
		if !o.Attained {
			continue
		}
		sum += o.WaitSecs
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RenderAQPComparison renders a Fig. 6-style table: attained jobs per
// class for each policy.
func RenderAQPComparison(reports []AQPReport) string {
	var b strings.Builder
	classes := []string{"light", "medium", "heavy", "total"}
	fmt.Fprintf(&b, "%-14s", "policy")
	for _, c := range classes {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteByte('\n')
	for _, r := range reports {
		att := r.AttainedByClass()
		tot := r.TotalByClass()
		fmt.Fprintf(&b, "%-14s", r.Policy)
		for _, c := range classes {
			fmt.Fprintf(&b, "%7d/%-2d", att[c], tot[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Bar renders a crude horizontal bar for terminal output. Non-finite
// inputs render empty: NaN slips past ordered comparisons and int(NaN)
// is implementation-defined, so it must be refused before the division —
// a NaN ratio would otherwise feed strings.Repeat a garbage count.
func Bar(value, max float64, width int) string {
	if math.IsNaN(max) || math.IsInf(max, 0) || max <= 0 ||
		math.IsNaN(value) || math.IsInf(value, 0) || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("█", n)
}

// SortOutcomesByID orders a report deterministically for golden output.
func (r *AQPReport) SortOutcomesByID() {
	sort.Slice(r.Outcomes, func(i, j int) bool { return r.Outcomes[i].ID < r.Outcomes[j].ID })
}
