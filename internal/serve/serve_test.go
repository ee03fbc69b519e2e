package serve

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"rotary/internal/admission"
	"rotary/internal/core"
	"rotary/internal/invariants"
)

// client is a line-oriented test client over the Unix socket.
type client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
}

func dial(t testing.TB, socket string) *client {
	t.Helper()
	conn, err := net.Dial("unix", socket)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, sc: bufio.NewScanner(conn), enc: json.NewEncoder(conn)}
}

func (c *client) call(t testing.TB, m Message) Response {
	t.Helper()
	if err := c.enc.Encode(m); err != nil {
		t.Fatalf("send: %v", err)
	}
	if !c.sc.Scan() {
		t.Fatalf("no reply: %v", c.sc.Err())
	}
	var r Response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil {
		t.Fatalf("bad reply %q: %v", c.sc.Text(), err)
	}
	return r
}

func TestSubmitStatusDrain(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)
	c := dial(t, d.socket)

	sub := c.call(t, Message{Op: "submit", ID: "job-a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !sub.OK {
		t.Fatalf("submit refused: %+v", sub)
	}
	st := c.call(t, Message{Op: "status", ID: "job-a"})
	if !st.OK || st.Status == "" {
		t.Fatalf("status: %+v", st)
	}
	// Advance far past the deadline: the job must be terminal.
	adv := c.call(t, Message{Op: "advance", Seconds: 2000})
	if !adv.OK || adv.VirtualNow < 2000 {
		t.Fatalf("advance: %+v", adv)
	}
	st = c.call(t, Message{Op: "status", ID: "job-a"})
	for _, bad := range []string{"waiting", "pending", "running"} {
		if st.Status == bad {
			t.Fatalf("job still %s after its deadline", bad)
		}
	}
	stats := c.call(t, Message{Op: "stats"})
	if !stats.OK || stats.Jobs != 1 || stats.Terminal != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if !strings.Contains(stats.Report, "overload report: serve") {
		t.Fatalf("stats report missing overload section:\n%s", stats.Report)
	}

	if dr := c.drain(t); dr.Status != "drained" {
		t.Fatalf("drain: %+v", dr)
	}
	d.wg.Wait()
	// A second drain (the SIGTERM handler losing the race with a client
	// drain) must not hang.
	if r := d.srv.Drain(); !r.OK {
		t.Fatalf("second drain: %+v", r)
	}
}

func TestSubmitValidation(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)
	c := dial(t, d.socket)

	cases := []struct {
		name string
		msg  Message
		want string
	}{
		{"no criteria", Message{Op: "submit", Statement: "q1"}, "no completion-criteria clause"},
		{"runtime criterion", Message{Op: "submit", Statement: "q1 FOR 10 MINUTES"}, "accuracy criterion"},
		{"epoch deadline", Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 5 EPOCHS"}, "wall-time"},
		{"unknown query", Message{Op: "submit", Statement: "q99 ACC MIN 60% WITHIN 900 SECONDS"}, "q99"},
		{"bad op", Message{Op: "frobnicate"}, "unknown op"},
		{"negative advance", Message{Op: "advance", Seconds: -1}, ">= 0"},
	}
	for _, tc := range cases {
		r := c.call(t, tc.msg)
		if r.OK || !strings.Contains(r.Error, tc.want) {
			t.Errorf("%s: got %+v, want error containing %q", tc.name, r, tc.want)
		}
	}

	ok := c.call(t, Message{Op: "submit", ID: "dup", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !ok.OK {
		t.Fatalf("submit: %+v", ok)
	}
	if r := c.call(t, Message{Op: "submit", ID: "dup", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.OK || !strings.Contains(r.Error, "duplicate") {
		t.Errorf("duplicate id accepted: %+v", r)
	}
	if r := c.call(t, Message{Op: "status", ID: "ghost"}); r.OK || !strings.Contains(r.Error, "unknown job") {
		t.Errorf("ghost status: %+v", r)
	}
}

func TestAdmissionRefusalOverSocket(t *testing.T) {
	d := newDaemon(t, daemon{admit: &admission.Config{MaxQueueDepth: 1, Policy: admission.Reject}})
	d.start(t)
	c := dial(t, d.socket)

	// With a 20-thread pool only one q1 runs at a time; the first fills
	// the active set, the second arrival finds it at the bound.
	first := c.call(t, Message{Op: "submit", ID: "a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !first.OK {
		t.Fatalf("first submit refused: %+v", first)
	}
	second := c.call(t, Message{Op: "submit", ID: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if second.OK {
		t.Fatalf("second submit admitted past the bound: %+v", second)
	}
	if second.Status != "rejected" {
		t.Fatalf("refused submit status %q, want rejected", second.Status)
	}
	st := d.ctrl.Stats()
	if st.Submitted != 2 || st.Rejected != 1 {
		t.Fatalf("controller stats %+v", st)
	}
}

func TestDrainBySignalPath(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)
	c := dial(t, d.socket)
	if r := c.call(t, Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	// The out-of-band Drain (what the SIGTERM handler calls) must finish
	// the in-flight job and report it terminal.
	r := d.srv.Drain()
	if !r.OK || r.Status != "drained" || r.Jobs != 1 {
		t.Fatalf("drain: %+v", r)
	}
	if err := invariants.Drained(r.Jobs, r.Terminal); err != nil {
		t.Fatal(err)
	}
	d.wg.Wait()
	// Post-drain requests get a clean refusal or a closed connection —
	// never a hang.
	if err := c.enc.Encode(Message{Op: "stats"}); err == nil && c.sc.Scan() {
		var resp Response
		if jerr := json.Unmarshal(c.sc.Bytes(), &resp); jerr == nil && resp.OK {
			t.Fatalf("post-drain request served: %+v", resp)
		}
	}
}

// newObsDaemon starts a pace-0 daemon whose executor, admission
// controller, and request counters all land on its private registry,
// with a bounded trace ring: the full observability surface.
func newObsDaemon(t *testing.T, ringCap int) *daemon {
	t.Helper()
	d := newDaemon(t, daemon{tracer: core.NewTracer(ringCap), admit: &admission.Config{}})
	d.start(t)
	return d
}

// runSeededSession drives one fixed request sequence and returns the
// metrics op's Report.
func runSeededSession(t *testing.T, ringCap int) string {
	t.Helper()
	c := dial(t, newObsDaemon(t, ringCap).socket)
	if r := c.call(t, Message{Op: "submit", ID: "g1", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	m := c.call(t, Message{Op: "metrics"})
	if !m.OK {
		t.Fatalf("metrics: %+v", m)
	}
	return m.Report
}

// TestMetricsOpGoldenAndDeterministic replays the same seeded pace-0
// session twice against private registries: the metrics responses must be
// byte-identical (wall-clock metrics are excluded by default), and the
// exposition must carry the counters the session provably produced.
func TestMetricsOpGoldenAndDeterministic(t *testing.T) {
	a := runSeededSession(t, 64)
	b := runSeededSession(t, 64)
	if a != b {
		t.Fatalf("metrics op not replay-stable:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	for _, want := range []string{
		`rotary_serve_requests_total{op="submit"} 1`,
		`rotary_serve_requests_total{op="advance"} 1`,
		`rotary_serve_requests_total{op="metrics"} 1`,
		"rotary_admission_submitted_total 1",
		"rotary_admission_admitted_total 1",
		"rotary_aqp_arrivals_total 1",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("metrics report missing %q", want)
		}
	}
	if strings.Contains(a, "rotary_serve_pace_drift_secs") {
		t.Errorf("wall-class gauge leaked into the default (deterministic) metrics view")
	}
	wall := runSeededSessionWall(t)
	if !strings.Contains(wall, "rotary_serve_pace_drift_secs") {
		t.Errorf("wall=true metrics view missing the wall-class drift gauge:\n%s", wall)
	}
}

func runSeededSessionWall(t *testing.T) string {
	t.Helper()
	c := dial(t, newObsDaemon(t, 64).socket)
	m := c.call(t, Message{Op: "metrics", Wall: true})
	if !m.OK {
		t.Fatalf("metrics wall: %+v", m)
	}
	return m.Report
}

// TestTraceTailAndHealthOps exercises the live-introspection ops: the
// trace tail must serve the bounded ring's recent events plus the
// overwrite count, and health must report job totals and the clock.
func TestTraceTailAndHealthOps(t *testing.T) {
	d := newObsDaemon(t, 4)
	c := dial(t, d.socket)

	if r := c.call(t, Message{Op: "submit", ID: "t1", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}

	tail := c.call(t, Message{Op: "trace-tail", N: 2})
	if !tail.OK || tail.Report == "" {
		t.Fatalf("trace-tail: %+v", tail)
	}
	if tail.Dropped == 0 {
		t.Fatalf("a full session through a 4-slot ring reported zero overwrites")
	}
	if lines := strings.Count(strings.TrimRight(tail.Report, "\n"), "\n") + 1; lines > 2 {
		t.Fatalf("trace-tail n=2 returned %d lines:\n%s", lines, tail.Report)
	}

	h := c.call(t, Message{Op: "health"})
	if !h.OK || h.Status != "healthy" || h.Jobs != 1 || h.VirtualNow < 2000 {
		t.Fatalf("health: %+v", h)
	}
	if h.Dropped != tail.Dropped {
		t.Fatalf("health dropped %d != trace-tail dropped %d", h.Dropped, tail.Dropped)
	}
	if v, ok := d.reg.Value(`rotary_serve_requests_total{op="health"}`); !ok || v != 1 {
		t.Fatalf("health request counter = %v, %v", v, ok)
	}
}

// TestTraceTailWithoutTracer keeps the op a clean refusal, not a panic,
// when the executor was built without tracing.
func TestTraceTailWithoutTracer(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)
	c := dial(t, d.socket)
	r := c.call(t, Message{Op: "trace-tail"})
	if r.OK || !strings.Contains(r.Error, "tracing disabled") {
		t.Fatalf("trace-tail without tracer: %+v", r)
	}
}

// TestPacedDriveAnchoredClock runs a briefly paced server and checks the
// fixed-anchor invariant: the virtual clock never outruns
// Pace × wall-elapsed, yet makes real progress (the old per-tick-delta
// scheme could drift on both sides under scheduler jitter). Bounds are
// deliberately loose — this guards the anchoring logic, not timer
// precision.
func TestPacedDriveAnchoredClock(t *testing.T) {
	const pace = 100.0
	d := newDaemon(t, daemon{cfg: Config{Pace: pace, Tick: 5 * time.Millisecond}})
	d.boot(t)
	start := time.Now()
	d.wg = serveAsync(t, d.srv)
	c := dial(t, d.socket)

	time.Sleep(150 * time.Millisecond)
	h := c.call(t, Message{Op: "health"})
	elapsed := time.Since(start).Seconds()
	if !h.OK {
		t.Fatalf("health: %+v", h)
	}
	if h.VirtualNow > pace*elapsed+1e-6 {
		t.Fatalf("virtual clock %.3fs outran the pace line %.3fs", h.VirtualNow, pace*elapsed)
	}
	if h.VirtualNow < pace*0.150*0.1 {
		t.Fatalf("virtual clock %.3fs made almost no progress over %.0fms wall", h.VirtualNow, elapsed*1000)
	}
	if _, ok := d.reg.Value("rotary_serve_pace_drift_secs"); !ok {
		t.Fatalf("paced run never set the drift gauge")
	}
}
