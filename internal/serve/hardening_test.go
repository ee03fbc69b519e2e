package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"strings"
	"testing"

	"rotary/internal/admission"
)

// TestStaleSocketStartup: a SIGKILLed daemon never unlinks its socket;
// the next start must detect the dead socket (nothing answers a dial),
// remove it, and bind — instead of failing with "address already in
// use".
func TestStaleSocketStartup(t *testing.T) {
	d := newDaemon(t, daemon{})
	// Leave a dead socket file behind, exactly as kill -9 would.
	ln, err := net.Listen("unix", d.socket)
	if err != nil {
		t.Fatalf("plant socket: %v", err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Stat(d.socket); err != nil {
		t.Fatalf("stale socket not on disk: %v", err)
	}

	d.start(t)
	c := dial(t, d.socket)
	if r := c.call(t, Message{Op: "health"}); !r.OK {
		t.Fatalf("health on reclaimed socket: %+v", r)
	}
}

// TestLiveSocketNotStolen: the stale-socket probe must leave a living
// server's socket alone — the second daemon fails to bind instead of
// hijacking the address.
func TestLiveSocketNotStolen(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)

	if err := removeStaleSocket(d.socket); err != nil {
		t.Fatalf("probe errored on a live socket: %v", err)
	}
	if _, err := os.Stat(d.socket); err != nil {
		t.Fatalf("probe removed a live socket: %v", err)
	}
	d2 := newDaemon(t, daemon{})
	d2.socket = d.socket
	d2.boot(t)
	if err := d2.srv.Serve(); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second daemon bound a live socket: %v", err)
	}
}

// TestOversizedRequestLine: a request beyond the line limit gets a typed
// "too-large" reply (and a metric), not a silent hangup.
func TestOversizedRequestLine(t *testing.T) {
	d := newObsDaemon(t, 64)
	conn, err := net.Dial("unix", d.socket)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	big := append(bytes.Repeat([]byte("a"), maxLineBytes+16), '\n')
	if _, err := conn.Write(big); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no reply to oversized request: %v", err)
	}
	if resp.OK || resp.Code != CodeTooLarge {
		t.Fatalf("oversized reply: %+v", resp)
	}
	// The connection closes after the reply (the stream position is
	// unrecoverable mid-line).
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("connection still open after oversized request")
	}
	if v, ok := d.reg.Value("rotary_serve_oversized_requests_total"); !ok || v != 1 {
		t.Fatalf("oversized counter = %v, %v", v, ok)
	}
}

// TestResponseCodes pins the machine-readable Code on each error class,
// so retrying clients can branch without string-matching Error.
func TestResponseCodes(t *testing.T) {
	d := newDaemon(t, daemon{admit: &admission.Config{MaxQueueDepth: 1, Policy: admission.Reject}})
	d.start(t)
	c := dial(t, d.socket)

	cases := []struct {
		name string
		msg  Message
		want string
	}{
		{"bad statement", Message{Op: "submit", Statement: "q1"}, CodeBadRequest},
		{"unknown op", Message{Op: "frobnicate"}, CodeUnknownOp},
		{"unknown job", Message{Op: "status", ID: "ghost"}, CodeUnknownJob},
		{"negative advance", Message{Op: "advance", Seconds: -1}, CodeBadRequest},
	}
	for _, tc := range cases {
		if r := c.call(t, tc.msg); r.Code != tc.want {
			t.Errorf("%s: code %q, want %q (%+v)", tc.name, r.Code, tc.want, r)
		}
	}
	// Malformed JSON carries bad-request too.
	if _, err := c.conn.Write([]byte("{not json\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !c.sc.Scan() {
		t.Fatalf("no reply to bad JSON: %v", c.sc.Err())
	}
	var badj Response
	if err := json.Unmarshal(c.sc.Bytes(), &badj); err != nil || badj.Code != CodeBadRequest {
		t.Fatalf("bad JSON reply: %+v (%v)", badj, err)
	}
	// Admission refusal and duplicate ids.
	if r := c.call(t, Message{Op: "submit", ID: "a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("first submit: %+v", r)
	}
	if r := c.call(t, Message{Op: "submit", ID: "a", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.Code != CodeDuplicateRequest {
		t.Errorf("duplicate id code %q, want %q", r.Code, CodeDuplicateRequest)
	}
	if r := c.call(t, Message{Op: "submit", ID: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.Code != CodeAdmissionRefused {
		t.Errorf("refused submit code %q, want %q (%+v)", r.Code, CodeAdmissionRefused, r)
	}

	// Draining refusals carry the draining code: park a raw connection,
	// drain, then ask again on a fresh dial (the listener is closed, so
	// use the parked one).
	parked, err := net.Dial("unix", d.socket)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer parked.Close()
	if r := d.srv.Drain(); !r.OK {
		t.Fatalf("drain: %+v", r)
	}
	d.wg.Wait()
	enc := json.NewEncoder(parked)
	sc := bufio.NewScanner(parked)
	if err := enc.Encode(Message{Op: "stats"}); err == nil && sc.Scan() {
		var r Response
		if jerr := json.Unmarshal(sc.Bytes(), &r); jerr == nil && !r.OK && r.Code != CodeDraining {
			t.Errorf("post-drain refusal code %q, want %q", r.Code, CodeDraining)
		}
	}
}

// migrate-in is an op on every server and shard socket, so the record it
// is handed gets the checks a submit of the same statement and tenant
// gets.
func TestMigrateInRefusesNonAccuracyCriterion(t *testing.T) {
	migrateInRefusedLikeSubmit(t, JobRecord{ID: "c", Statement: "q6 LOSS DELTA 0.01 WITHIN 900 SECONDS"})
}

func TestMigrateInRefusesControlCharacterTenant(t *testing.T) {
	migrateInRefusedLikeSubmit(t, JobRecord{ID: "c", Statement: "q6 ACC MIN 60% WITHIN 900 SECONDS", Tenant: "a\x01b"})
}

func migrateInRefusedLikeSubmit(t *testing.T, jr JobRecord) {
	t.Helper()
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)
	sub := c.call(t, Message{Op: "submit", ID: jr.ID, Statement: jr.Statement, Tenant: jr.Tenant})
	mig := c.call(t, Message{Op: "migrate-in", Job: &jr})
	if sub.Code != CodeBadRequest || mig.Code != CodeBadRequest {
		t.Fatalf("statement %q, tenant %q: submit %+v, migrate-in %+v; both must be %s",
			jr.Statement, jr.Tenant, sub, mig, CodeBadRequest)
	}
}

// A job migrated in keeps its tenant across a restart of the receiving
// server: the journal's submit record carries it, as submit's does.
func TestMigrateInJournalsTenant(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)
	jr := JobRecord{ID: "m", Statement: "q6 ACC MIN 60% WITHIN 900 SECONDS", Tenant: "alpha", Status: "pending"}
	if r := c.call(t, Message{Op: "migrate-in", Job: &jr}); !r.OK {
		t.Fatalf("migrate-in: %+v", r)
	}
	c = d.restart(t)
	if r := c.call(t, Message{Op: "status", ID: "m"}); r.Tenant != "alpha" {
		t.Fatalf("after restart: %+v, want tenant alpha", r)
	}
}
