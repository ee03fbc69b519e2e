// Package cliutil holds what the rotary binaries share on the command
// line: flag validation — values are range-checked before any work
// starts, so a typo'd -jobs -5 fails with a usage error instead of a
// confusing panic (or a silent empty run) minutes into dataset
// generation — and the constructor behind the AQP -policy flag.
package cliutil

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// MinInt requires v >= min.
func MinInt(name string, v, min int) error {
	if v < min {
		return fmt.Errorf("%s must be >= %d (got %d)", name, min, v)
	}
	return nil
}

// Positive requires v > 0.
func Positive(name string, v float64) error {
	if !(v > 0) { // NaN fails too
		return fmt.Errorf("%s must be > 0 (got %g)", name, v)
	}
	return nil
}

// NonNegative requires v >= 0.
func NonNegative(name string, v float64) error {
	if !(v >= 0) { // NaN fails too
		return fmt.Errorf("%s must be >= 0 (got %g)", name, v)
	}
	return nil
}

// Fraction requires v in [0, 1].
func Fraction(name string, v float64) error {
	if !(v >= 0 && v <= 1) { // NaN fails too
		return fmt.Errorf("%s must be in [0, 1] (got %g)", name, v)
	}
	return nil
}

// OneOf requires v to be one of allowed.
func OneOf(name, v string, allowed ...string) error {
	if slices.Contains(allowed, v) {
		return nil
	}
	return fmt.Errorf("%s must be one of %s (got %q)", name, strings.Join(allowed, ", "), v)
}

// ValidateAll joins the non-nil errors, one per line.
func ValidateAll(errs ...error) error {
	return errors.Join(errs...)
}
