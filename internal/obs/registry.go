// Package obs is the always-on observability layer under every Rotary
// executor: an allocation-light metrics registry (atomic counters, gauges,
// and fixed-bucket histograms with deterministic Prometheus text
// rendering), a streaming trace sink for the arbitration timeline, and an
// optional HTTP debug listener serving /metrics plus pprof.
//
// The hot-path contract is that recording a metric is one atomic
// operation on a pre-resolved handle: executors look their handles up once
// at construction and never touch the registry map again. Every handle
// method is nil-safe, so uninstrumented configurations pay a single nil
// check.
//
// Metrics split into two classes. Deterministic metrics are derived from
// virtual time and seed-stable inputs only — two runs from one seed
// produce bit-identical renderings, which the replay tests assert.
// Wall-clock metrics (registered through the Wall* constructors) measure
// real time and are excluded from deterministic renders and golden
// comparisons.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable
// — obtain counters from a Registry. All methods are nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative or zero deltas are ignored
// (counters are monotone by definition).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the value by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bucket i counts observations
// v with v <= bounds[i] (and greater than the previous bound); an
// implicit +Inf bucket catches the rest, matching Prometheus "le"
// semantics. All methods are nil-safe.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value. NaN observations are dropped (they poison
// the sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

type entry struct {
	name string
	help string
	kind metricKind
	// wall marks a wall-clock-derived metric, excluded from deterministic
	// renders and golden comparisons.
	wall    bool
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Lookup is GetOrCreate: asking for an
// existing name with the same kind returns the shared handle (two
// executors on one registry accumulate into the same counters, like any
// process-wide metrics endpoint); a kind mismatch panics — it is a
// programming error, never data-dependent. A nil *Registry returns nil
// handles everywhere, so it composes with the nil-safe metric methods.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// defaultRegistry is the process-wide registry instrumented layers fall
// back to when no explicit registry is configured — the always-on path.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Metric names: a Prometheus identifier, optionally followed by one
// brace-enclosed label set (e.g. `requests_total{op="submit"}`).
var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?$`)

func (r *Registry) get(name, help string, kind metricKind, wall bool, bounds []float64) *entry {
	if r == nil {
		return nil
	}
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if kind == kindHistogram && strings.Contains(name, "{") {
		panic(fmt.Sprintf("obs: histogram %q: labels are not supported on histograms", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind, wall: wall}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		e.hist = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
	}
	r.entries[name] = e
	return e
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.get(name, help, kindCounter, false, nil)
	if e == nil {
		return nil
	}
	return e.counter
}

// Gauge returns the named deterministic gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.get(name, help, kindGauge, false, nil)
	if e == nil {
		return nil
	}
	return e.gauge
}

// WallGauge returns the named wall-clock gauge (excluded from
// deterministic renders).
func (r *Registry) WallGauge(name, help string) *Gauge {
	e := r.get(name, help, kindGauge, true, nil)
	if e == nil {
		return nil
	}
	return e.gauge
}

// Histogram returns the named deterministic histogram with the given
// bucket upper bounds (sorted internally; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e := r.get(name, help, kindHistogram, false, bounds)
	if e == nil {
		return nil
	}
	return e.hist
}

// WallHistogram returns the named wall-clock histogram (excluded from
// deterministic renders).
func (r *Registry) WallHistogram(name, help string, bounds []float64) *Histogram {
	e := r.get(name, help, kindHistogram, true, bounds)
	if e == nil {
		return nil
	}
	return e.hist
}

// Value reads a counter or gauge by name (tests and cross-checks).
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch e.kind {
	case kindCounter:
		return float64(e.counter.Value()), true
	case kindGauge:
		return e.gauge.Value(), true
	default:
		return 0, false
	}
}

// formatValue renders a sample value in exposition format.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// family strips the label set from a metric name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Labeled is one registry's share of a merged exposition: every sample
// it renders carries Key="Value" as its first label (none when Key is
// empty) — how a shard router serves every shard's registry in one scrape
// without name collisions.
type Labeled struct {
	Reg        *Registry
	Key, Value string
}

// RenderText writes every metric in the Prometheus text exposition format
// (version 0.0.4), sorted by name so the output is stable. With
// includeWall false, wall-clock metrics are omitted and the rendering of
// a seeded run is bit-identical across replays.
func (r *Registry) RenderText(includeWall bool) string {
	return RenderMerged(includeWall, Labeled{Reg: r})
}

// RenderMerged renders several registries as one exposition. Families
// merge across registries: each gets one # HELP / # TYPE header (from the
// first registry that has it), and its samples stay contiguous, ordered by
// registry and then by name.
func RenderMerged(includeWall bool, regs ...Labeled) string {
	type sample struct {
		e     *entry
		src   int
		label string // `key="value",` or empty
	}
	var ss []sample
	for i, l := range regs {
		if l.Reg == nil {
			continue
		}
		label := ""
		if l.Key != "" {
			label = fmt.Sprintf("%s=%q,", l.Key, l.Value)
		}
		l.Reg.mu.Lock()
		for _, e := range l.Reg.entries {
			if includeWall || !e.wall {
				ss = append(ss, sample{e, i, label})
			}
		}
		l.Reg.mu.Unlock()
	}
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		if fa, fb := family(a.e.name), family(b.e.name); fa != fb {
			return fa < fb
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.e.name < b.e.name
	})

	var b strings.Builder
	lastFamily := ""
	for _, s := range ss {
		e := s.e
		if f := family(e.name); f != lastFamily {
			lastFamily = f
			if e.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", f, strings.ReplaceAll(e.help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", f, e.kind)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", withLabel(e.name, s.label), e.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", withLabel(e.name, s.label), formatValue(e.gauge.Value()))
		case kindHistogram:
			h := e.hist
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{%sle=\"%s\"} %d\n", e.name, s.label, formatValue(bound), cum)
			}
			// The +Inf bucket equals the total count by definition; read
			// count once so the line stays consistent even mid-Observe.
			count := h.Count()
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", e.name, s.label, count)
			fmt.Fprintf(&b, "%s %s\n", withLabel(e.name+"_sum", s.label), formatValue(h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", withLabel(e.name+"_count", s.label), count)
		}
	}
	return b.String()
}

// withLabel prepends label (`key="value",`) to a metric name's label set.
func withLabel(name, label string) string {
	if label == "" {
		return name
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i+1] + label + name[i+1:]
	}
	return name + "{" + label[:len(label)-1] + "}"
}
