package admission_test

import (
	"math"
	"sync"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/invariants"
	"rotary/internal/obs"
)

// checkLedger asserts the invariants every Stats snapshot must satisfy,
// regardless of policy or arrival mix:
//
//	Admitted + Rejected == Submitted - unresolved ShedVictim verdicts
//	Degraded            <= Admitted
//	Shed                <= Admitted (each eviction admitted one arrival)
//	QueueFullRejections <= Rejected
func checkLedger(t *testing.T, s admission.Stats, unresolved int) {
	t.Helper()
	if s.Admitted+s.Rejected != s.Submitted-unresolved {
		t.Errorf("ledger leak: admitted %d + rejected %d != submitted %d - unresolved %d",
			s.Admitted, s.Rejected, s.Submitted, unresolved)
	}
	if s.Degraded > s.Admitted {
		t.Errorf("degraded %d > admitted %d", s.Degraded, s.Admitted)
	}
	if s.Shed > s.Admitted {
		t.Errorf("shed %d > admitted %d", s.Shed, s.Admitted)
	}
	if s.QueueFullRejections > s.Rejected {
		t.Errorf("queue-full rejections %d > rejected %d", s.QueueFullRejections, s.Rejected)
	}
}

// checkRegistry asserts that every counted Stats field equals its
// counter in the controller's registry.
func checkRegistry(t *testing.T, reg *obs.Registry, s admission.Stats) {
	t.Helper()
	const p = "rotary_admission_"
	if err := invariants.RegistryAgrees(reg, map[string]int{
		p + "submitted_total":             s.Submitted,
		p + "admitted_total":              s.Admitted,
		p + "rejected_total":              s.Rejected,
		p + "shed_total":                  s.Shed,
		p + "degraded_total":              s.Degraded,
		p + "queue_full_rejections_total": s.QueueFullRejections,
	}); err != nil {
		t.Error(err)
	}
}

// TestStatsLedgerInvariants drives each policy through a mixed arrival
// table and checks that every decision lands in exactly one ledger
// bucket, and that the registry counts what Stats does, at every
// intermediate step and at the end.
func TestStatsLedgerInvariants(t *testing.T) {
	// Arrival mix: feasible under-bound, infeasible, at-bound feasible,
	// at-bound infeasible, and no-deadline arrivals.
	arrivals := []admission.Request{
		{ID: "a", QueueDepth: 0, EstCompletionSecs: 10, RemainingSecs: 100},
		{ID: "b", QueueDepth: 1, EstCompletionSecs: 500, RemainingSecs: 100},
		{ID: "c", QueueDepth: 2, EstCompletionSecs: 10, RemainingSecs: math.Inf(1)},
		{ID: "d", QueueDepth: 2, EstCompletionSecs: 10, RemainingSecs: 100},
		{ID: "e", QueueDepth: 2, EstCompletionSecs: 900, RemainingSecs: 50},
		{ID: "f", QueueDepth: 2, EstCompletionSecs: 1, RemainingSecs: 100},
	}
	cases := []struct {
		name       string
		cfg        admission.Config
		shedFound  bool // outcome reported for every ShedVictim verdict
		wantFields func(s admission.Stats) bool
	}{
		{
			name:       "reject",
			cfg:        admission.Config{MaxQueueDepth: 2, SlackFactor: 1, Policy: admission.Reject},
			wantFields: func(s admission.Stats) bool { return s.Shed == 0 && s.Degraded == 0 && s.Rejected > 0 },
		},
		{
			name:       "shed victim found",
			cfg:        admission.Config{MaxQueueDepth: 2, SlackFactor: 1, Policy: admission.ShedLowestValue},
			shedFound:  true,
			wantFields: func(s admission.Stats) bool { return s.Shed > 0 },
		},
		{
			name:       "shed no victim",
			cfg:        admission.Config{MaxQueueDepth: 2, SlackFactor: 1, Policy: admission.ShedLowestValue},
			shedFound:  false,
			wantFields: func(s admission.Stats) bool { return s.Shed == 0 && s.QueueFullRejections > 0 },
		},
		{
			name:       "degrade",
			cfg:        admission.Config{MaxQueueDepth: 2, SlackFactor: 1, Policy: admission.Degrade},
			wantFields: func(s admission.Stats) bool { return s.Degraded > 0 },
		},
		{
			name:       "unbounded no slack",
			cfg:        admission.Config{Policy: admission.Reject},
			wantFields: func(s admission.Stats) bool { return s.Admitted == s.Submitted && s.Rejected == 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.cfg.Obs = reg
			c := admission.NewController(tc.cfg)
			for _, r := range arrivals {
				d := c.Decide(r)
				if d.Verdict == admission.ShedVictim {
					// Ledger holds even mid-flight, before the verdict resolves.
					checkLedger(t, c.Stats(), 1)
					checkRegistry(t, reg, c.Stats())
					c.ResolveShed(r, tc.shedFound)
				}
				checkLedger(t, c.Stats(), 0)
				checkRegistry(t, reg, c.Stats())
			}
			s := c.Stats()
			if s.Submitted != len(arrivals) {
				t.Fatalf("submitted = %d, want %d", s.Submitted, len(arrivals))
			}
			if !tc.wantFields(s) {
				t.Errorf("policy-specific expectation failed: %+v", s)
			}
		})
	}
}

// TestStatsLedgerConcurrent hammers one controller from many goroutines
// and checks that no decision is lost or double-counted. Run under
// -race this also proves the Decide/ResolveShed/Stats ledger is
// data-race free.
func TestStatsLedgerConcurrent(t *testing.T) {
	const workers, perWorker = 8, 250
	c := admission.NewController(admission.Config{MaxQueueDepth: 3, SlackFactor: 1, Policy: admission.ShedLowestValue, Obs: obs.NewRegistry()})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := admission.Request{
					ID:                "j",
					QueueDepth:        (w + i) % 5,
					EstCompletionSecs: float64(10 * (i%3 + 1)),
					RemainingSecs:     float64(25 * (i%4 + 1)),
				}
				if d := c.Decide(r); d.Verdict == admission.ShedVictim {
					c.ResolveShed(r, i%2 == 0)
				}
				// Interleave snapshots with decisions from other goroutines.
				_ = c.Stats()
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Submitted != workers*perWorker {
		t.Fatalf("submitted = %d, want %d", s.Submitted, workers*perWorker)
	}
	checkLedger(t, s, 0)
	if s.Admitted == 0 || s.Rejected == 0 {
		t.Fatalf("mix did not exercise both outcomes: %+v", s)
	}
}
