package serve

import (
	"fmt"
	"sort"
	"testing"

	"rotary/internal/faults"
	"rotary/internal/invariants"
	"rotary/internal/sim"
)

// chaosPlan draws a seeded workload (feasible jobs plus one infeasible
// job that must expire in every run) and merges it with the seed's
// deterministic daemon-kill schedule into one time-ordered plan.
func chaosPlan(seed uint64, withKills bool) []chaosEvent {
	rng := sim.NewRand(seed ^ 0x5e21e)
	queries := []string{"q1", "q3", "q5", "q6"}
	var evs []chaosEvent
	for i := 0; i < 5; i++ {
		evs = append(evs, chaosEvent{
			at:   rng.Range(0, 280),
			kind: "submit",
			id:   fmt.Sprintf("c%d-%d", seed, i),
			stmt: fmt.Sprintf("%s ACC MIN %.0f%% WITHIN 900 SECONDS", queries[rng.IntN(len(queries))], rng.Range(50, 70)),
		})
	}
	evs = append(evs, chaosEvent{
		at:   rng.Range(0, 280),
		kind: "submit",
		id:   fmt.Sprintf("tight-%d", seed),
		stmt: "q1 ACC MIN 99% WITHIN 3 SECONDS",
	})
	if withKills {
		for i, at := range faults.NewCrashSchedule(seed, 300, 3).Points() {
			evs = append(evs, chaosEvent{at: at, kind: "kill", id: fmt.Sprintf("kill-%d", i)})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// TestKillRestartChaos is the kill-restart chaos suite: for each seed,
// a control run (no kills) and a chaos run (the seed's deterministic
// daemon-kill schedule) execute the same workload; the chaos run must
// terminate, keep every admitted job, never rewind the clock or the
// server epoch, and reach the same terminal statuses the uninterrupted
// run reached.
func TestKillRestartChaos(t *testing.T) {
	run := func(t *testing.T, plan []chaosEvent) map[string]string {
		d := newDaemon(t, daemon{durable: true})
		d.start(t)
		c := dial(t, d.socket)
		epochs := []int{c.call(t, Message{Op: "resume"}).ServerEpoch}
		c, ids := drive(t, c, plan, func(now float64) *client {
			c := d.restart(t)
			res := c.call(t, Message{Op: "resume"})
			if !res.OK {
				t.Fatalf("resume after kill: %+v", res)
			}
			if res.VirtualNow < now-1e-9 {
				t.Fatalf("restart rewound the clock: %.3f < %.3f", res.VirtualNow, now)
			}
			epochs = append(epochs, res.ServerEpoch)
			return c
		})
		if err := invariants.EpochsIncrease(epochs); err != nil {
			t.Fatal(err)
		}
		// Run far past every deadline: restart-at-any-virtual-time must
		// still terminate every job.
		got, _ := sweep(t, c, ids, 3000, 1)
		c.drain(t)
		return got
	}
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			control := run(t, chaosPlan(seed, false))
			if err := invariants.SameOutcomes(control, run(t, chaosPlan(seed, true))); err != nil {
				t.Error(err)
			}
			if want := control[fmt.Sprintf("tight-%d", seed)]; want != "expired" {
				t.Errorf("infeasible job ended %q in control, want expired", want)
			}
		})
	}
}
