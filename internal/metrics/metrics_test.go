package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/sim"
	"rotary/internal/workload"
)

func TestSummarizeQuantiles(t *testing.T) {
	v := Summarize([]float64{4, 1, 3, 2, 5})
	if v.Min != 1 || v.Max != 5 || v.P50 != 3 || v.Mean != 3 || v.N != 5 {
		t.Fatalf("summary %+v", v)
	}
	if v.P25 != 2 || v.P75 != 4 {
		t.Fatalf("quartiles %+v", v)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.P50 != 7 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestSummarizeProperties(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		r := sim.NewRand(seed)
		size := int(n)%60 + 1
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = r.Range(-100, 100)
		}
		orig := make([]float64, size)
		copy(orig, vals)
		v := Summarize(vals)
		// Input must not be mutated.
		for i := range vals {
			if vals[i] != orig[i] {
				return false
			}
		}
		sorted := make([]float64, size)
		copy(sorted, vals)
		sort.Float64s(sorted)
		return v.Min == sorted[0] && v.Max == sorted[size-1] &&
			v.Min <= v.P25 && v.P25 <= v.P50 && v.P50 <= v.P75 && v.P75 <= v.Max &&
			v.Mean >= v.Min && v.Mean <= v.Max
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAQPReportClassCounts(t *testing.T) {
	rep := AQPReport{Policy: "test", Outcomes: []AQPJobOutcome{
		{ID: "a", Class: "light", Attained: true},
		{ID: "b", Class: "heavy", Attained: false},
	}}
	att := rep.AttainedByClass()
	if att["light"] != 1 || att["total"] != 1 {
		t.Errorf("attained counts %v", att)
	}
	tot := rep.TotalByClass()
	if tot["heavy"] != 1 || tot["total"] != 2 {
		t.Errorf("total counts %v", tot)
	}
}

func TestAvgWaitOverAttainedOnly(t *testing.T) {
	rep := AQPReport{Outcomes: []AQPJobOutcome{
		{Attained: true, WaitSecs: 10},
		{Attained: true, WaitSecs: 30},
		{Attained: false, WaitSecs: 1000},
	}}
	if got := rep.AvgWaitSecs(); got != 20 {
		t.Errorf("avg wait %v, want 20 over attained jobs", got)
	}
	if (AQPReport{}).AvgWaitSecs() != 0 {
		t.Error("empty report wait not 0")
	}
}

func TestRenderLineChart(t *testing.T) {
	rising := Series{Name: "rising", Points: []XY{{0, 0}, {50, 0.5}, {100, 1}}}
	flat := Series{Name: "flat", Points: []XY{{0, 0.2}, {100, 0.2}}}
	out := RenderLineChart("demo", []Series{rising, flat}, 40, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "rising") || !strings.Contains(out, "flat") {
		t.Fatalf("chart missing title/legend:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// The top-left cell region must hold the max label, the rising series'
	// last point lands near the top-right.
	if !strings.Contains(lines[1], "1.00") {
		t.Errorf("max label missing from top row: %q", lines[1])
	}
	topRow := lines[1]
	if !strings.Contains(topRow, "*") {
		t.Errorf("rising series missing from top row: %q", topRow)
	}
	if empty := RenderLineChart("x", nil, 40, 10); !strings.Contains(empty, "no data") {
		t.Errorf("empty chart rendered %q", empty)
	}
}

func TestRenderLineChartOverlapGlyph(t *testing.T) {
	a := Series{Name: "a", Points: []XY{{0, 0.5}}}
	b := Series{Name: "b", Points: []XY{{0, 0.5}}}
	out := RenderLineChart("", []Series{a, b}, 20, 6)
	if !strings.Contains(out, "#") {
		t.Errorf("overlapping points not marked:\n%s", out)
	}
}

func TestRenderOverload(t *testing.T) {
	as := admission.Stats{
		Submitted: 10, Admitted: 6, Rejected: 2, Shed: 1, Degraded: 1,
		QueueFullRejections: 2, MaxQueueDepth: 4,
	}
	os := core.OverloadStats{
		WatchdogPreemptions: 3, WatchdogWastedSecs: 12.5,
		Rejected: 2, Shed: 1, Degraded: 1, ForcedGrants: 5, MaxPendingDepth: 4,
	}
	out := RenderOverload("aqp", as, os)
	for _, want := range []string{
		"overload report: aqp", "submitted=10", "admitted=6",
		"queue-full-rejections=2", "max-depth=4", "preemptions=3",
		"wasted=12.5s", "forced-grants=5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// No controller configured ⇒ the admission line is suppressed.
	if quiet := RenderOverload("dlt", admission.Stats{}, os); strings.Contains(quiet, "admission:") {
		t.Errorf("zero admission stats still rendered an admission line:\n%s", quiet)
	}
}

func TestRenderRecovery(t *testing.T) {
	rs := core.RecoveryStats{
		Crashes: 3, Recovered: 2, Rollbacks: 2, ScratchRestarts: 1,
		WastedWorkSecs: 40.5, RecoveryLatencySecs: 9,
	}
	health := core.StoreHealth{Retries: 4, TransientFailures: 1, CorruptDetected: 1, SlowIOs: 2, Swept: 3}
	out := RenderRecovery("aqp", rs, health)
	for _, want := range []string{
		"recovery report: aqp", "crashes=3", "recovered=2", "rollbacks=2",
		"scratch-restarts=1", "wasted-work=40.5s", "mean=3.0s",
		"retries=4", "transient-failures=1", "corrupt-detected=1", "slow-ios=2", "swept=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRenderGanttDegenerateHorizon replays the divide-by-zero hazard: a
// zero horizon made slotLen 0, so every placement's slot index became
// int(±Inf). The chart must instead auto-fit to the latest placement and
// still show every job's track.
func TestRenderGanttDegenerateHorizon(t *testing.T) {
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 8, 10, 3); err != nil {
		t.Fatalf("seed history: %v", err)
	}
	specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(2, 7))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	exec := core.NewDLTExecutor(core.DefaultDLTExecConfig(), baselines.SRF{}, repo)
	for _, spec := range specs {
		j, err := workload.BuildDLTJob(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.ID, err)
		}
		exec.Submit(j, 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	placed := 0
	for _, j := range exec.Jobs() {
		placed += len(j.Placements())
	}
	if placed == 0 {
		t.Fatalf("fixture produced no placements; the regression needs at least one")
	}
	for _, horizon := range []sim.Time{0, -5, sim.Time(math.NaN()), sim.Time(math.Inf(1))} {
		g := RenderGantt(exec.Jobs(), 4, horizon, 20)
		if !strings.Contains(g, "gpu0") || !strings.Contains(g, " 0") {
			t.Fatalf("horizon %v: malformed gantt:\n%s", horizon, g)
		}
		if !strings.Contains(g, " 1") {
			t.Errorf("horizon %v: auto-fit chart lost job tracks:\n%s", horizon, g)
		}
	}
	// A sane horizon still renders as before.
	if g := RenderGantt(exec.Jobs(), 4, exec.Engine().Now(), 20); !strings.Contains(g, "gpu0") {
		t.Fatalf("normal horizon broken:\n%s", g)
	}
}

// TestRenderLineChartSinglePoint guards the companion degenerate-range
// case: one point collapses both axis ranges, which the renderer must
// widen rather than divide by zero.
func TestRenderLineChartSinglePoint(t *testing.T) {
	out := RenderLineChart("single", []Series{{Name: "s", Points: []XY{{X: 3, Y: 0.7}}}}, 30, 8)
	if !strings.Contains(out, "single") || !strings.Contains(out, "*") {
		t.Fatalf("single-point chart missing plot:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Fatalf("non-finite label leaked: %q", line)
		}
	}
}
