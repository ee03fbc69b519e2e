package cliutil

import (
	"math"
	"strings"
	"testing"
)

func TestValidators(t *testing.T) {
	if err := MinInt("-jobs", 0, 1); err == nil || !strings.Contains(err.Error(), "-jobs") {
		t.Errorf("MinInt(0,1) = %v", err)
	}
	if err := MinInt("-jobs", 1, 1); err != nil {
		t.Errorf("MinInt(1,1) = %v", err)
	}
	if err := Positive("-sf", 0); err == nil {
		t.Error("Positive(0) accepted")
	}
	if err := Positive("-sf", math.NaN()); err == nil {
		t.Error("Positive(NaN) accepted")
	}
	if err := NonNegative("-arrival", -1); err == nil {
		t.Error("NonNegative(-1) accepted")
	}
	if err := Fraction("-fault-rate", 1.5); err == nil {
		t.Error("Fraction(1.5) accepted")
	}
	if err := Fraction("-fault-rate", 0.5); err != nil {
		t.Errorf("Fraction(0.5) = %v", err)
	}
	if err := OneOf("-policy", "edf", "rotary", "edf"); err != nil {
		t.Errorf("OneOf(edf) = %v", err)
	}
	if err := OneOf("-policy", "bogus", "rotary", "edf"); err == nil ||
		!strings.Contains(err.Error(), "-policy") || !strings.Contains(err.Error(), "rotary, edf") {
		t.Errorf("OneOf(bogus) = %v", err)
	}
	if err := OneOf("-policy", ""); err == nil {
		t.Error("OneOf with nothing allowed accepted")
	}
}

func TestValidateAllJoins(t *testing.T) {
	if err := ValidateAll(nil, nil); err != nil {
		t.Errorf("all-nil = %v", err)
	}
	err := ValidateAll(Positive("-sf", -1), nil, MinInt("-gpus", 0, 1))
	if err == nil {
		t.Fatal("joined errors lost")
	}
	for _, want := range []string{"-sf", "-gpus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s: %v", want, err)
		}
	}
}
