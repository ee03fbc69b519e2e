package cliutil

import (
	"strings"
	"testing"

	"rotary/internal/estimate"
)

// Every listed name builds a scheduler, and a name the table does not
// hold is an error that names it.
func TestPolicyTablesBuildEveryName(t *testing.T) {
	check := func(kind string, names []string, build func(string) (any, error)) {
		t.Helper()
		for _, name := range names {
			if s, err := build(name); err != nil || s == nil {
				t.Errorf("%s policy %q: scheduler %v, error %v", kind, name, s, err)
			}
		}
		if _, err := build("bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("%s policy bogus: error %v, want one naming it", kind, err)
		}
	}
	repo := estimate.NewRepository()
	check("AQP", AQPPolicies.Names(), func(n string) (any, error) { return AQPPolicies.New(n, repo) })
	check("DLT", DLTPolicies.Names(), func(n string) (any, error) { return DLTPolicies.New(n, repo) })
	if got := strings.Join(AQPPolicies.Names(), " "); got != "rotary relaqs edf laf rr" {
		t.Errorf("AQP names %q", got)
	}
	if got := strings.Join(DLTPolicies.Names(), " "); got != "adaptive fairness efficiency srf bcf laf" {
		t.Errorf("DLT names %q", got)
	}
}
