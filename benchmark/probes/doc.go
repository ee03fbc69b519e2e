// Package probes is the in-process half of the benchmark: the traced
// twin of the daemon, built with the constructors cmd/rotary-serve uses
// and wrapped in span-recording decorators, plus standalone probes that
// time one layer at a time. Everything here reaches into rotary's
// internal packages, so a moved function breaks this package and leaves
// the subprocess driver, and with it every end-to-end metric, intact.
package probes
