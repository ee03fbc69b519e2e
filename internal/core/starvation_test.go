package core_test

import (
	"fmt"
	"testing"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Starvation-freedom under any policy: with the aging guard armed, every
// admitted job must receive its first grant within a bounded number of
// grant rounds of arriving, no matter how the inner policy ranks it.
// Priority-ordered policies (EDF, LAF) would otherwise park the tail of
// an overloaded queue indefinitely.
func TestStarvationFreedomAcrossPolicies(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, 200); err != nil {
		t.Fatal(err)
	}
	const (
		aging = 4
		nJobs = 8 // 4x overload for a 2-thread pool
	)
	policies := []struct {
		name  string
		sched core.AQPScheduler
	}{
		{"rotary", core.NewRotaryAQP(estimate.NewAccuracyProgress(repo))},
		{"relaqs", baselines.ReLAQS{}},
		{"edf", baselines.EDFAQP{}},
		{"laf", baselines.LAFAQP{}},
		{"rr", baselines.RoundRobinAQP{}},
	}
	queries := []string{"q1", "q6", "q12", "q14", "q3", "q19"}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			tracer := &core.Tracer{}
			cfg := core.DefaultAQPExecConfig(1e6)
			cfg.Threads = 2
			cfg.AgingRounds = aging
			cfg.Tracer = tracer
			exec := core.NewAQPExecutor(cfg, p.sched, repo)
			var jobs []*core.AQPJob
			for i := 0; i < nJobs; i++ {
				j := buildJob(t, cat, fmt.Sprintf("st-%d", i), queries[i%len(queries)], 0.9, 1e7)
				jobs = append(jobs, j)
				exec.Submit(j, 0)
			}
			if err := exec.Run(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			events := tracer.Events()
			for _, j := range jobs {
				if !j.Status().Terminal() {
					t.Errorf("%s: job %s not terminal (%v)", p.name, j.ID(), j.Status())
				}
				// Find the job's first grant, counting the distinct grant
				// instants (arbitration rounds that granted someone) it sat
				// through first. The guard caps the wait at roughly its
				// aging threshold plus one forced grant per queued peer;
				// without it, a last-ranked job under EDF or LAF waits for
				// every higher-priority job's entire epoch sequence.
				rounds := 0
				lastGrantAt := -1.0
				first := false
				for _, ev := range events {
					if ev.Kind != core.TraceGrant {
						continue
					}
					if ev.Job == j.ID() {
						first = true
						break
					}
					if at := ev.At.Seconds(); at != lastGrantAt {
						rounds++
						lastGrantAt = at
					}
				}
				if !first {
					t.Errorf("%s: job %s was never granted", p.name, j.ID())
					continue
				}
				if limit := aging + nJobs + 2; rounds > limit {
					t.Errorf("%s: job %s waited %d grant rounds for its first grant (limit %d)",
						p.name, j.ID(), rounds, limit)
				}
			}
		})
	}
}

// The guard must stay out of the way when the inner policy is already
// fair: round-robin grants everyone without forced interventions.
func TestStarvationGuardIdleUnderFairPolicy(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 2
	cfg.AgingRounds = 4
	exec := core.NewAQPExecutor(cfg, baselines.RoundRobinAQP{}, nil)
	for i := 0; i < 6; i++ {
		exec.Submit(buildJob(t, cat, fmt.Sprintf("fair-%d", i), "q1", 0.9, 1e7), 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	if f := exec.Overload().ForcedGrants; f != 0 {
		t.Errorf("round-robin needed %d forced grants; the guard should be idle under a fair policy", f)
	}
}
