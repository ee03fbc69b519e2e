package core_test

import (
	"fmt"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/invariants"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Overload suite: open-loop Poisson arrivals far beyond capacity, with
// admission control, shedding, the epoch watchdog, starvation aging, and
// recoverable fault injection all armed at once. The run must terminate
// with every job terminal, keep the active set at the admission bound,
// and replay bit-identically per seed. Run under -race in CI alongside
// the chaos suite.

type overloadRun struct {
	exec   *core.AQPExecutor
	tracer *core.Tracer
	ctrl   *admission.Controller
	jobs   []*core.AQPJob
	// reg is the run's private metrics registry, so the obs-agreement
	// assertions see exactly this run's counters.
	reg *obs.Registry
}

const overloadQueueBound = 4

// runOverloadAQP drives 24 jobs at mean inter-arrival 5 s into a 2-thread
// pool — roughly 4× over what the pool clears — with every overload
// defence enabled. Deadlines alternate loose/tight so the feasibility
// check, shedding, and in-queue expiry all trigger.
func runOverloadAQP(t *testing.T, cat *tpch.Catalog, seed uint64) overloadRun {
	t.Helper()
	store, err := core.NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	ctrl := admission.NewController(admission.Config{
		MaxQueueDepth: overloadQueueBound,
		SlackFactor:   1,
		Policy:        admission.ShedLowestValue,
		Obs:           reg,
	})
	tracer := &core.Tracer{}
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 2
	cfg.Store = store
	cfg.Admission = ctrl
	// Slack below 1 makes the budget tighter than the predicted epoch
	// cost once a job has history — a pathological setting that preempts
	// aggressively and so proves the strike backoff makes progress anyway.
	cfg.WatchdogSlack = 0.5
	cfg.AgingRounds = 4
	cfg.Tracer = tracer
	cfg.Obs = reg
	in := faults.New(faults.Recoverable(seed, 0.05))
	store.SetFaults(in)
	cfg.Faults = in
	// EDF genuinely starves under overload — the loose-deadline half of
	// the workload waits behind every tight arrival — so the aging guard
	// has real work to do here, unlike a naturally-rotating policy.
	exec := core.NewAQPExecutor(cfg, baselines.EDFAQP{}, nil)

	r := sim.NewRand(seed)
	queries := []string{"q1", "q6", "q12", "q14", "q3", "q19"}
	var jobs []*core.AQPJob
	at := 0.0
	for i := 0; i < 24; i++ {
		deadline := 1e6
		if i%2 == 1 {
			deadline = 150
		}
		j := buildJob(t, cat, fmt.Sprintf("ov-%02d", i), queries[i%len(queries)], 0.9, deadline)
		jobs = append(jobs, j)
		exec.Submit(j, sim.Time(at))
		at += r.Exp(5)
	}
	if err := exec.Run(); err != nil {
		t.Fatalf("seed %d: overload run: %v", seed, err)
	}
	return overloadRun{exec: exec, tracer: tracer, ctrl: ctrl, jobs: jobs, reg: reg}
}

func TestOverloadOpenLoopSurvives(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	var totalRefused, totalPreempts, totalForced int
	for _, seed := range chaosSeeds {
		run := runOverloadAQP(t, cat, seed)
		for _, j := range run.jobs {
			if !j.Status().Terminal() {
				t.Errorf("seed %d: job %s not terminal (%v)", seed, j.ID(), j.Status())
			}
		}
		ov := run.exec.Overload()
		checkOutcomeGolden(t, fmt.Sprintf("aqp/%d", seed), renderOutcomes(run.jobs, ov, run.exec.Recovery()))
		if ov.MaxPendingDepth > overloadQueueBound {
			t.Errorf("seed %d: queue high-water %d exceeds admission bound %d",
				seed, ov.MaxPendingDepth, overloadQueueBound)
		}
		// Cross-layer counter consistency: the controller's view of
		// refusals must match the executor's terminal statuses.
		st := run.ctrl.Stats()
		var rejected, shed int
		for _, j := range run.jobs {
			switch j.Status() {
			case core.StatusRejected:
				rejected++
			case core.StatusShed:
				shed++
			}
		}
		if st.Submitted != len(run.jobs) {
			t.Errorf("seed %d: controller saw %d submissions of %d", seed, st.Submitted, len(run.jobs))
		}
		if st.Rejected != rejected || st.Shed != shed {
			t.Errorf("seed %d: controller counted rejected=%d shed=%d, statuses say %d/%d",
				seed, st.Rejected, st.Shed, rejected, shed)
		}
		if ov.Rejected != rejected || ov.Shed != shed {
			t.Errorf("seed %d: executor counted rejected=%d shed=%d, statuses say %d/%d",
				seed, ov.Rejected, ov.Shed, rejected, shed)
		}
		// Starvation-freedom: every admitted job was either granted at
		// least once or expired at its own deadline while waiting — never
		// left parked forever.
		for _, j := range run.jobs {
			if j.Status() == core.StatusRejected || j.Status() == core.StatusShed {
				continue
			}
			if j.Epochs() == 0 && j.Status() != core.StatusExpired {
				t.Errorf("seed %d: admitted job %s never ran yet ended %v", seed, j.ID(), j.Status())
			}
		}
		totalRefused += rejected + shed
		totalPreempts += ov.WatchdogPreemptions
		totalForced += ov.ForcedGrants
	}
	// The defences must actually fire somewhere across the three seeds,
	// or the suite proves nothing.
	if totalRefused == 0 {
		t.Error("no job was ever rejected or shed under 4x overload")
	}
	if totalPreempts == 0 {
		t.Error("the epoch watchdog never fired under a slack below 1")
	}
	if totalForced == 0 {
		t.Error("the starvation guard never forced a grant under 4x overload")
	}
}

// The whole overloaded timeline — every admission verdict, shed, watchdog
// preemption, crash, and grant — must replay bit-for-bit from one seed.
func TestOverloadSameSeedBitIdentical(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	a := runOverloadAQP(t, cat, 7)
	b := runOverloadAQP(t, cat, 7)
	if a.exec.Engine().Now() != b.exec.Engine().Now() {
		t.Fatalf("makespans diverged: %v vs %v", a.exec.Engine().Now(), b.exec.Engine().Now())
	}
	if a.exec.Overload() != b.exec.Overload() {
		t.Fatalf("overload counters diverged: %+v vs %+v", a.exec.Overload(), b.exec.Overload())
	}
	if a.ctrl.Stats() != b.ctrl.Stats() {
		t.Fatalf("admission stats diverged: %+v vs %+v", a.ctrl.Stats(), b.ctrl.Stats())
	}
	ea, eb := a.tracer.Events(), b.tracer.Events()
	if len(ea) != len(eb) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("trace event %d diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// A second overload shape: the DLT side under the same defences (bounded
// admission, watchdog, aging) must also terminate with a bounded queue —
// under plain rejection and under shedding, which evicts the queued job
// dltLessValuable ranks lowest — with its trace, counters and stats in
// agreement.
func TestOverloadDLTSurvives(t *testing.T) {
	specs := mustGenDLT(t, 16, 7)
	totalShed := 0
	for _, policy := range []admission.Policy{admission.Reject, admission.ShedLowestValue} {
		for _, seed := range chaosSeeds {
			store, err := core.NewCheckpointStore(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			ctrl := admission.NewController(admission.Config{
				MaxQueueDepth: 6,
				SlackFactor:   1,
				Policy:        policy,
			})
			cfg := core.DefaultDLTExecConfig()
			cfg.Store = store
			cfg.Admission = ctrl
			cfg.WatchdogSlack = 3
			cfg.AgingRounds = 4
			cfg.Tracer = &core.Tracer{}
			reg := obs.NewRegistry()
			cfg.Obs = reg
			in := faults.New(faults.Recoverable(seed, 0.05))
			store.SetFaults(in)
			cfg.Faults = in
			repo := estimate.NewRepository()
			if err := workload.SeedDLTHistory(repo, 40, 30, 3); err != nil {
				t.Fatal(err)
			}
			tee := estimate.NewTEE(repo)
			tme := estimate.NewTME(repo)
			exec := core.NewDLTExecutor(cfg, core.NewRotaryDLT(0.5, tee, tme), repo)
			r := sim.NewRand(seed)
			at := 0.0
			for _, spec := range specs {
				j, err := workload.BuildDLTJob(spec)
				if err != nil {
					t.Fatal(err)
				}
				exec.Submit(j, sim.Time(at))
				at += r.Exp(20)
			}
			if err := exec.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", policy, seed, err)
			}
			for _, j := range exec.Jobs() {
				if !j.Status().Terminal() {
					t.Errorf("%v seed %d: DLT job %s not terminal (%v)", policy, seed, j.ID(), j.Status())
				}
			}
			ov := exec.Overload()
			checkOutcomeGolden(t, fmt.Sprintf("dlt/%v/%d", policy, seed), renderOutcomes(exec.Jobs(), ov, exec.Recovery()))
			checkLedgersAgree(t, fmt.Sprintf("dlt/%v/%d", policy, seed), exec, reg, len(specs))
			if ov.MaxPendingDepth > 6 {
				t.Errorf("%v seed %d: DLT queue high-water %d exceeds bound 6", policy, seed, ov.MaxPendingDepth)
			}
			totalShed += ov.Shed
		}
	}
	if totalShed == 0 {
		t.Error("no DLT job was ever shed under ShedLowestValue")
	}
}

// TestOverloadObsCountersAgree checks the always-on metrics against the
// run's authoritative ledgers at every overload seed: the trace, executor
// OverloadStats, admission Stats, and the job outcomes themselves. Any
// drift means a transition was missed or double-counted.
func TestOverloadObsCountersAgree(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	for _, seed := range chaosSeeds {
		run := runOverloadAQP(t, cat, seed)
		get := func(name string) float64 {
			t.Helper()
			v, ok := run.reg.Value(name)
			if !ok {
				t.Fatalf("metric %s never registered", name)
			}
			return v
		}

		ov := run.exec.Overload()
		ast := run.ctrl.Stats()
		if ov.WatchdogPreemptions == 0 || ast.Rejected == 0 {
			t.Fatalf("seed %d: overload run triggered no defences (preempts=%d rejected=%d); agreement test is vacuous",
				seed, ov.WatchdogPreemptions, ast.Rejected)
		}
		checkLedgersAgree(t, fmt.Sprintf("aqp/%d", seed), run.exec, run.reg, len(run.jobs))
		if err := invariants.RegistryAgrees(run.reg, map[string]int{
			"rotary_aqp_watchdog_preemptions_total":        ov.WatchdogPreemptions,
			"rotary_aqp_rejected_total":                    ov.Rejected,
			"rotary_aqp_shed_total":                        ov.Shed,
			"rotary_aqp_degraded_total":                    ov.Degraded,
			"rotary_aqp_arrivals_total":                    len(run.jobs),
			"rotary_admission_submitted_total":             ast.Submitted,
			"rotary_admission_admitted_total":              ast.Admitted,
			"rotary_admission_rejected_total":              ast.Rejected,
			"rotary_admission_shed_total":                  ast.Shed,
			"rotary_admission_degraded_total":              ast.Degraded,
			"rotary_admission_queue_full_rejections_total": ast.QueueFullRejections,
		}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Terminal accounting: every job ends exactly once, and the per-status
		// outcome counters partition the stop total.
		stops := get("rotary_aqp_stops_total")
		if int(stops) != len(run.jobs) {
			t.Errorf("seed %d: stops_total = %v, want %d (every job terminal exactly once)", seed, stops, len(run.jobs))
		}
		var byStatus float64
		for _, status := range []string{"attained", "converged", "expired", "rejected", "shed"} {
			if v, ok := run.reg.Value(fmt.Sprintf("rotary_aqp_job_outcomes_total{status=%q}", status)); ok {
				byStatus += v
			}
		}
		if byStatus != stops {
			t.Errorf("seed %d: per-status outcomes sum to %v, stops_total is %v", seed, byStatus, stops)
		}
		// Gauges settle at zero once the run drains.
		if v := get("rotary_aqp_pending_jobs"); v != 0 {
			t.Errorf("seed %d: pending_jobs gauge = %v after drain", seed, v)
		}
		if v := get("rotary_aqp_running_jobs"); v != 0 {
			t.Errorf("seed %d: running_jobs gauge = %v after drain", seed, v)
		}
	}
}
