package core

import (
	"fmt"
	"maps"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/criteria"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
)

// TestTenantPendingCountMatchesQueue holds the kept per-tenant queue
// count — admission's MaxPending input — to a recount of the wait queue
// after every engine event, through every way a job enters or leaves the
// queue: arrival, grant, deferral, watchdog re-queue, deadline expiry,
// shedding, and refusals that never joined it.
func TestTenantPendingCountMatchesQueue(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	reg := obs.NewRegistry()
	ctrl := admission.NewController(admission.Config{
		MaxQueueDepth: 6,
		Policy:        admission.ShedLowestValue,
		Tenants: admission.TenantTable{Tenants: map[string]admission.TenantQuota{
			"a": {Weight: 2},
			"b": {Weight: 1, MaxPending: 2},
		}},
		Obs: reg,
	})
	store, err := NewCheckpointStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAQPExecConfig(1e6)
	cfg.Threads = 2
	cfg.Obs, cfg.Admission, cfg.Store = reg, ctrl, store
	cfg.WatchdogSlack = 1.5
	e := NewAQPExecutor(cfg, NewFairShareAQP(NewRotaryAQP(nil), ctrl.Config().Tenants.Weights()), nil)

	rng := sim.NewRand(7)
	queries := []string{"q1", "q3", "q6", "q12"}
	for i := 0; i < 40; i++ {
		q, err := cat.NewQuery(queries[rng.IntN(len(queries))])
		if err != nil {
			t.Fatal(err)
		}
		crit, err := criteria.NewAccuracy("ACC", rng.Range(0.5, 0.95),
			criteria.Deadline{Value: rng.Range(20, 400), Unit: criteria.Seconds})
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewAQPJob(AQPJobConfig{ID: fmt.Sprintf("j%02d", i), Query: q, Criteria: crit,
			Tenant: []string{"a", "b", ""}[i%3], EstMemMB: 64, BatchRows: 200})
		if err != nil {
			t.Fatal(err)
		}
		e.Submit(j, sim.Time(rng.Range(0, 200)))
	}
	steps := 0
	for e.Engine().Step() {
		steps++
		want := make(map[string]int)
		for _, p := range e.pending {
			want[p.tenant]++
		}
		if !maps.Equal(e.tenantPending, want) {
			t.Fatalf("after event %d: kept tenant queue counts %v, queue holds %v", steps, e.tenantPending, want)
		}
	}
	if err := e.drainErr(); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Stats()
	if st.Shed == 0 || st.Rejected == 0 {
		t.Errorf("workload never exercised shedding and refusal: %+v", st)
	}
	if o := e.Overload(); o.WatchdogPreemptions == 0 {
		t.Errorf("workload never exercised a watchdog re-queue: %+v", o)
	}
	expired := 0
	for _, j := range e.Jobs() {
		if j.status == StatusExpired {
			expired++
		}
	}
	if expired == 0 {
		t.Error("workload never expired a job")
	}
	t.Logf("%d events, admission %+v, overload %+v, %d expired", steps, st, e.Overload(), expired)
}
