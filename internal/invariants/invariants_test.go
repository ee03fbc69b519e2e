package invariants_test

import (
	"fmt"
	"testing"

	"rotary/internal/invariants"
	"rotary/internal/obs"
)

// TestChecks gives every check one crafted violation, which it must
// report, and one clean input, which it must pass.
func TestChecks(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("done_total", "").Add(3)
	reg.Gauge("depth", "").Set(2)
	ids := func(v []string) error {
		if len(v) > 0 {
			return fmt.Errorf("%v", v)
		}
		return nil
	}
	for _, tc := range []struct {
		name       string
		bad, clean error
	}{
		{"SameOutcomes",
			invariants.SameOutcomes(map[string]string{"a": "attained", "b": "expired"}, map[string]string{"a": "attained", "b": "attained"}),
			invariants.SameOutcomes(map[string]string{"a": "attained"}, map[string]string{"a": "attained"})},
		{"SameOutcomes/untracked",
			invariants.SameOutcomes(map[string]string{"a": "attained"}, map[string]string{"a": "attained", "x": "expired"}),
			invariants.SameOutcomes(nil, map[string]string{})},
		{"AllTerminal",
			invariants.AllTerminal(map[string]string{"a": "attained", "b": "running"}),
			invariants.AllTerminal(map[string]string{"a": "attained", "b": "expired", "c": "rejected"})},
		{"Drained",
			invariants.Drained(4, 3),
			invariants.Drained(4, 4)},
		{"Lost",
			ids(invariants.Lost([]string{"a", "b"}, []string{"a", "c"})),
			ids(invariants.Lost([]string{"a", "b"}, []string{"b", "a", "c"}))},
		{"Duplicates",
			ids(invariants.Duplicates([]string{"a", "b", "a", "a"})),
			ids(invariants.Duplicates([]string{"a", "b", "c"}))},
		{"EpochsIncrease",
			invariants.EpochsIncrease([]int{1, 2, 2}),
			invariants.EpochsIncrease([]int{1, 2, 5})},
		{"RegistryAgrees",
			invariants.RegistryAgrees(reg, map[string]int{"done_total": 2}),
			invariants.RegistryAgrees(reg, map[string]int{"done_total": 3, "depth": 2})},
		{"RegistryAgrees/absent",
			invariants.RegistryAgrees(reg, map[string]int64{"never_total": 0}),
			invariants.RegistryAgrees(reg, map[string]int64{"done_total": 3})},
	} {
		if tc.bad == nil {
			t.Errorf("%s: crafted violation passed", tc.name)
		}
		if tc.clean != nil {
			t.Errorf("%s: clean input reported %v", tc.name, tc.clean)
		}
	}
	if got := invariants.Lost([]string{"c", "a", "b"}, []string{"b"}); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("Lost = %v, want [a c]", got)
	}
	if got := invariants.Duplicates([]string{"b", "a", "b", "a", "b"}); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Duplicates = %v, want [a b]", got)
	}
}
