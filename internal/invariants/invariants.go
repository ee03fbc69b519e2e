// Package invariants holds the properties every chaos suite asserts, as
// plain-data checks that return what they found wrong, or nil.
package invariants

import (
	"fmt"
	"maps"
	"slices"

	"rotary/internal/core"
	"rotary/internal/obs"
)

// SameOutcomes checks that a run ended every job with the control run's status.
func SameOutcomes(control, got map[string]string) error {
	if maps.Equal(control, got) {
		return nil
	}
	return fmt.Errorf("outcomes differ from the control run:\n  got     %v\n  control %v", got, control)
}

// AllTerminal checks that every tracked job reached a terminal status:
// not unadmitted ("" or "submitted"), pending, or running.
func AllTerminal(statuses map[string]string) error {
	for _, id := range slices.Sorted(maps.Keys(statuses)) {
		switch statuses[id] {
		case "", "submitted", core.StatusPending.String(), core.StatusRunning.String():
			return fmt.Errorf("job %s never terminated: %q", id, statuses[id])
		}
	}
	return nil
}

// Drained checks a drain's reply: every job the server holds is terminal.
func Drained(jobs, terminal int) error {
	if terminal != jobs {
		return fmt.Errorf("drain left %d of %d jobs unterminated", jobs-terminal, jobs)
	}
	return nil
}

// Lost returns, sorted, the acked ids that kept does not hold.
func Lost(acked, kept []string) []string {
	have := make(map[string]bool, len(kept))
	for _, id := range kept {
		have[id] = true
	}
	lost := slices.DeleteFunc(slices.Clone(acked), func(id string) bool { return have[id] })
	slices.Sort(lost)
	return lost
}

// Duplicates returns, sorted, each id that appears more than once.
func Duplicates(ids []string) []string {
	seen := make(map[string]int, len(ids))
	var dups []string
	for _, id := range ids {
		if seen[id]++; seen[id] == 2 {
			dups = append(dups, id)
		}
	}
	slices.Sort(dups)
	return dups
}

// EpochsIncrease checks that no restart rewound the server epoch.
func EpochsIncrease(epochs []int) error {
	if !slices.IsSorted(epochs) || len(slices.Compact(slices.Clone(epochs))) < len(epochs) {
		return fmt.Errorf("server epochs not strictly increasing: %v", epochs)
	}
	return nil
}

// RegistryAgrees checks that each named series in reg exists and holds its ledger value.
func RegistryAgrees[N int | int64](reg *obs.Registry, ledger map[string]N) error {
	for _, name := range slices.Sorted(maps.Keys(ledger)) {
		if got, ok := reg.Value(name); !ok || got != float64(ledger[name]) {
			return fmt.Errorf("registry %s = %v (registered %v), ledger says %d", name, got, ok, ledger[name])
		}
	}
	return nil
}
