package core_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"rotary/internal/core"
	"rotary/internal/invariants"
	"rotary/internal/obs"
)

// ledgerExec is what the three-ledger check reads of an executor.
type ledgerExec interface {
	Recovery() core.RecoveryStats
	Overload() core.OverloadStats
	Tracer() *core.Tracer
}

// kindLetter spells a job's trace as a string, one letter per event;
// jobSequence is TraceKind's documented per-job sequence over those
// letters.
var (
	kindLetter = map[core.TraceKind]byte{
		core.TraceArrive: 'A', core.TraceGrant: 'G', core.TracePlace: 'G', core.TraceOOM: 'O',
		core.TraceResume: 'R', core.TraceRestart: 'X', core.TraceEpochDone: 'E', core.TraceCheckpoint: 'C',
		core.TraceCrash: 'K', core.TraceWatchdog: 'W', core.TraceStop: 'S', core.TraceShed: 'H',
		core.TraceDetach: 'D', core.TraceReject: 'J',
	}
	jobSequence = regexp.MustCompile(`^(J|A(G(O|[RX]?(E[CX]?|K|W)))*[SHD])$`)
)

// checkLedgersAgree checks one finished run's three ledgers against each
// other. The run must trace into an unbounded tracer and count into its
// own registry reg, and jobs is how many jobs it submitted.
//   - Every trace kind's count equals its counter and its stats field.
//   - arrivals_total counts the arrive events plus the reject events (the
//     gate counts an arrival before it refuses it).
//   - Each job's events follow TraceKind's per-job sequence, so they open
//     with arrive or reject and close with exactly one terminal event:
//     stop, reject, shed or detach.
func checkLedgersAgree(t *testing.T, label string, exec ledgerExec, reg *obs.Registry, jobs int) {
	t.Helper()
	events := exec.Tracer().Events()
	n := map[core.TraceKind]int{}
	byJob := map[string]string{}
	reattached := 0
	for _, ev := range events {
		n[ev.Kind]++
		byJob[ev.Job] += string(kindLetter[ev.Kind])
		if ev.Kind == core.TraceArrive && ev.Detail == "recovered" {
			reattached++
		}
	}

	sub, ooms := "aqp", 0
	if d, ok := exec.(*core.DLTExecutor); ok {
		sub, ooms = "dlt", d.OOMEvents()
	}
	p := "rotary_" + sub + "_"
	counters := map[string]int{
		p + "crashes_total":              n[core.TraceCrash],
		p + "scratch_restarts_total":     n[core.TraceRestart],
		p + "watchdog_preemptions_total": n[core.TraceWatchdog],
		p + "rejected_total":             n[core.TraceReject],
		p + "shed_total":                 n[core.TraceShed],
		p + "checkpoints_total":          n[core.TraceCheckpoint],
		p + "resumes_total":              n[core.TraceResume],
		p + "epochs_total":               n[core.TraceEpochDone],
		p + "detached_total":             n[core.TraceDetach],
		p + "reattached_total":           reattached,
		p + "stops_total":                n[core.TraceStop] + n[core.TraceReject] + n[core.TraceShed],
		p + "arrivals_total":             n[core.TraceArrive] + n[core.TraceReject],
	}
	if sub == "dlt" {
		counters[p+"placements_total"] = n[core.TracePlace]
		counters[p+"oom_total"] = n[core.TraceOOM]
	} else {
		counters[p+"grants_total"] = n[core.TraceGrant]
	}
	if err := invariants.RegistryAgrees(reg, counters); err != nil {
		t.Errorf("%s: counters disagree with the trace: %v", label, err)
	}
	if want := fmt.Sprintf("%sepoch_secs_count %d\n", p, n[core.TraceEpochDone]); !strings.Contains(reg.RenderText(false), want) {
		t.Errorf("%s: epoch histogram lacks %q", label, want)
	}

	rec, ov := exec.Recovery(), exec.Overload()
	for _, c := range []struct {
		name         string
		stats, trace int
	}{
		{"Recovery.Crashes", rec.Crashes, n[core.TraceCrash]},
		{"Recovery.ScratchRestarts", rec.ScratchRestarts, n[core.TraceRestart]},
		{"Recovery.Reattached", rec.Reattached, reattached},
		{"Overload.WatchdogPreemptions", ov.WatchdogPreemptions, n[core.TraceWatchdog]},
		{"Overload.Rejected", ov.Rejected, n[core.TraceReject]},
		{"Overload.Shed", ov.Shed, n[core.TraceShed]},
		{"OOMEvents", ooms, n[core.TraceOOM]},
	} {
		if c.stats != c.trace {
			t.Errorf("%s: %s = %d, the trace holds %d", label, c.name, c.stats, c.trace)
		}
	}

	if len(byJob) != jobs {
		t.Errorf("%s: %d jobs traced, %d submitted", label, len(byJob), jobs)
	}
	for id, seq := range byJob {
		if !jobSequence.MatchString(seq) {
			t.Errorf("%s: job %s traced %q, outside TraceKind's per-job sequence", label, id, seq)
		}
	}
}
