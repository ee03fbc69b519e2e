// Heavy-traffic front-end tests: the binary codec, TCP listeners,
// ingress batching with group commit, overload backpressure, and the
// auto-id monotonicity regression.
package serve

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseListenAddr(t *testing.T) {
	cases := []struct {
		spec, network, addr string
		wantErr             bool
	}{
		{spec: "tcp:127.0.0.1:7070", network: "tcp", addr: "127.0.0.1:7070"},
		{spec: "tcp::9000", network: "tcp", addr: ":9000"},
		{spec: "unix:/tmp/x.sock", network: "unix", addr: "/tmp/x.sock"},
		{spec: "/tmp/bare.sock", network: "unix", addr: "/tmp/bare.sock"},
		{spec: "tcp:", wantErr: true},
		{spec: "unix:", wantErr: true},
		{spec: "", wantErr: true},
	}
	for _, c := range cases {
		network, addr, err := parseListenAddr(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseListenAddr(%q): want error, got %s/%s", c.spec, network, addr)
			}
			continue
		}
		if err != nil || network != c.network || addr != c.addr {
			t.Errorf("parseListenAddr(%q) = %s/%s/%v, want %s/%s", c.spec, network, addr, err, c.network, c.addr)
		}
	}
}

// TestCodecRoundTrip pushes fully-populated messages and responses
// through the binary payload encoding and back: every field must
// survive, including the nested JobRecord and ShardInfo shapes.
func TestCodecRoundTrip(t *testing.T) {
	jr := &JobRecord{ID: "j1", ReqID: "r1", Statement: "q5 ACC MIN 80% WITHIN 900 SECONDS",
		Tenant: "acme", BatchRows: 512, ArrivalAt: 12.5, Status: "running", BestEffort: true, Epochs: 7}
	msgs := []Message{
		{},
		{Op: "submit", ID: "job-1", ReqID: "req-1", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS",
			Tenant: "t0", BatchRows: 4096, Wall: true, N: 16},
		{Op: "advance", Seconds: 123.25},
		{Op: "resume", ServerEpoch: 42},
		{Op: "migrate-in", Shard: 3, Job: jr},
		{Op: "trace-tail", N: -5},
	}
	for i, m := range msgs {
		got, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("message %d round trip:\n sent %+v\n got  %+v", i, m, got)
		}
	}
	resps := []Response{
		{},
		{OK: true, ID: "job-1", Status: "running", Tenant: "t0", Accuracy: 0.93, Progress: 0.5,
			BestEffort: true, VirtualNow: 99.5, Jobs: 10, Terminal: 3, Report: "line1\nline2",
			Dropped: 12, ServerEpoch: 4, Recovered: 2, Shard: 1},
		{Error: "serve: overloaded: ingress ring full (64 queued)", Code: CodeOverloaded, RetryAfterSecs: 0.75},
		{OK: true, Job: jr},
		{OK: true, Shards: []ShardInfo{
			{Index: 0, State: "running", Restarts: 1, Jobs: 5, VirtualNow: 10, ServerEpoch: 2},
			{Index: 1, State: "down", Error: "boom"},
		}},
		{OK: true, VirtualNow: -3.5, Jobs: -1},
	}
	for i, r := range resps {
		got, err := decodeResponse(encodeResponse(r))
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("response %d round trip:\n sent %+v\n got  %+v", i, r, got)
		}
	}
	// Floats cross as their bits: NaN, ±Inf, −0 and a subnormal too.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64} {
		m, err := decodeMessage(encodeMessage(Message{Op: "advance", Seconds: f}))
		if err != nil || math.Float64bits(m.Seconds) != math.Float64bits(f) {
			t.Errorf("Seconds %v (bits %016x) came back as %v (bits %016x), err %v", f, math.Float64bits(f), m.Seconds, math.Float64bits(m.Seconds), err)
		}
		r, err := decodeResponse(encodeResponse(Response{OK: true, Accuracy: f}))
		if err != nil || math.Float64bits(r.Accuracy) != math.Float64bits(f) {
			t.Errorf("Accuracy %v (bits %016x) came back as %v (bits %016x), err %v", f, math.Float64bits(f), r.Accuracy, math.Float64bits(r.Accuracy), err)
		}
	}
}

// TestCodecDecodeGarbage feeds malformed payloads to both decoders:
// every outcome must be a typed error — never a panic, never a bogus
// success from a truncated buffer.
func TestCodecDecodeGarbage(t *testing.T) {
	valid := encodeMessage(Message{Op: "submit", ID: "x", Seconds: 1.5})
	msgCases := [][]byte{
		{0xff},            // unknown tag
		{mtOp},            // string tag with its value missing
		{mtSeconds, 1, 2}, // truncated float
		valid[:len(valid)-1],
		{mtOp, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // absurd uvarint length
	}
	for i, b := range msgCases {
		if _, err := decodeMessage(b); err == nil {
			t.Errorf("decodeMessage(case %d): want error, got success", i)
		}
	}
	respCases := [][]byte{
		{0xff},
		{rtError},
		{rtVirtualNow, 1, 2, 3},
		encodeResponse(Response{OK: true, Report: "hello"})[:3],
	}
	for i, b := range respCases {
		if _, err := decodeResponse(b); err == nil {
			t.Errorf("decodeResponse(case %d): want error, got success", i)
		}
	}
	// A tagless empty payload is the zero message — valid by construction.
	if m, err := decodeMessage(nil); err != nil || m.Op != "" {
		t.Errorf("decodeMessage(nil) = %+v, %v", m, err)
	}
}

// TestListenAddrsCompleteOnceConnectable is the regression loop for the
// bind/publish race: the Unix socket accepts connections the moment it
// is bound, which used to be before the TCP listener was bound and
// before the set was published, so a client that had already connected
// could read ListenAddrs() == []. Fifty boots: connect (serveAsync
// returns on the first successful dial), then the set must be complete.
func TestListenAddrsCompleteOnceConnectable(t *testing.T) {
	for i := 0; i < 50; i++ {
		d := newDaemon(t, daemon{cfg: Config{Listeners: []string{"tcp:127.0.0.1:0"}}})
		d.start(t)
		addrs := d.srv.ListenAddrs()
		d.srv.Drain()
		d.wg.Wait()
		if len(addrs) != 2 || addrs[0].Network() != "unix" || addrs[1].Network() != "tcp" {
			t.Fatalf("boot %d: connected client saw ListenAddrs() = %v, want [unix tcp]", i, addrs)
		}
	}
}

// TestTCPBinaryEndToEnd drives the full protocol over a TCP listener
// with the binary codec on one connection and JSON lines on another:
// both negotiate against the same listener and observe the same jobs.
func TestTCPBinaryEndToEnd(t *testing.T) {
	d := newDaemon(t, daemon{cfg: Config{Listeners: []string{"tcp:127.0.0.1:0"}}})
	d.start(t)

	var tcpAddr string
	for _, a := range d.srv.ListenAddrs() {
		if a.Network() == "tcp" {
			tcpAddr = a.String()
		}
	}
	if tcpAddr == "" {
		t.Fatalf("no TCP listener bound: %v", d.srv.ListenAddrs())
	}

	bin, err := NewClient(ClientConfig{Socket: "tcp:" + tcpAddr, Codec: CodecBinary})
	if err != nil {
		t.Fatalf("NewClient(binary): %v", err)
	}
	defer bin.Close()
	sub, err := bin.Do(Message{Op: "submit", ID: "tcp-a", ReqID: "req-tcp-a",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if err != nil || !sub.OK {
		t.Fatalf("binary submit: %+v, %v", sub, err)
	}

	// JSON over the same TCP listener: the codec is per connection.
	jsonCl, err := NewClient(ClientConfig{Socket: "tcp:" + tcpAddr})
	if err != nil {
		t.Fatalf("NewClient(json/tcp): %v", err)
	}
	defer jsonCl.Close()
	st, err := jsonCl.Do(Message{Op: "status", ID: "tcp-a"})
	if err != nil || !st.OK {
		t.Fatalf("json status over tcp: %+v, %v", st, err)
	}

	// And the original Unix socket still works alongside.
	c := dial(t, d.socket)
	if r := c.call(t, Message{Op: "status", ID: "tcp-a"}); !r.OK {
		t.Fatalf("unix status: %+v", r)
	}

	// The binary codec survives the big text payloads too, and the
	// negotiated-codec counter proves the preamble was honored.
	met, err := bin.Do(Message{Op: "metrics"})
	if err != nil || !met.OK {
		t.Fatalf("binary metrics: %+v, %v", met, err)
	}
	if !strings.Contains(met.Report, `rotary_serve_conns_total{codec="binary"}`) {
		t.Fatalf("metrics missing binary conn counter:\n%s", met.Report)
	}
	bad, err := bin.Do(Message{Op: "status", ID: "nope"})
	if err != nil || bad.Code != CodeUnknownJob {
		t.Fatalf("binary unknown-job: %+v, %v", bad, err)
	}
}

// TestGroupCommitAmortizesFsync is the tentpole's fsync-amortization
// proof: a burst of submits arriving together must commit under far
// fewer fsyncs than one per request, while IngressBatch=1 (the
// historical request-at-a-time mode) pays the full price — and both
// runs journal exactly the same records.
func TestGroupCommitAmortizesFsync(t *testing.T) {
	const n = 16
	run := func(batch int) (syncs, records, groups int64) {
		t.Helper()
		d := newDaemon(t, daemon{durable: true, cfg: Config{IngressBatch: batch}})
		d.boot(t)
		srv := d.srv
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = request{
				msg: Message{Op: "submit", ID: fmt.Sprintf("gc-%03d", i),
					Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"},
				reply: make(chan Response, 1),
			}
			// The ring is buffered: enqueue the whole burst before the driver
			// wakes — exactly the arrival pattern group commit exists for.
			srv.reqCh <- reqs[i]
		}
		go srv.drive()
		for i, r := range reqs {
			if resp := <-r.reply; !resp.OK {
				t.Fatalf("batch=%d submit %d refused: %+v", batch, i, resp)
			}
		}
		syncs, records, groups = srv.jl.SyncStats()
		srv.Kill()
		return syncs, records, groups
	}

	batchedSyncs, batchedRecs, batchedGroups := run(64)
	baseSyncs, baseRecs, _ := run(1)

	if batchedRecs != baseRecs {
		t.Fatalf("group commit changed the journaled history: %d records batched vs %d baseline", batchedRecs, baseRecs)
	}
	if baseSyncs < n {
		t.Fatalf("baseline (IngressBatch=1) ran %d fsyncs for %d submits, want >= %d", baseSyncs, n, n)
	}
	if batchedSyncs*4 > baseSyncs {
		t.Fatalf("group commit did not amortize: %d fsyncs batched vs %d baseline", batchedSyncs, baseSyncs)
	}
	if batchedGroups == 0 {
		t.Fatalf("no multi-record group commits recorded (syncs=%d records=%d)", batchedSyncs, batchedRecs)
	}
}

// TestOverloadedRefusal fills the ingress ring with no driver draining
// it: the next dispatch must refuse with code "overloaded" and a
// positive retry hint instead of blocking the connection handler.
func TestOverloadedRefusal(t *testing.T) {
	d := newDaemon(t, daemon{cfg: Config{IngressDepth: 2}})
	d.boot(t)
	srv := d.srv
	// No drive() goroutine: the ring only fills.
	for i := 0; i < 2; i++ {
		srv.reqCh <- request{msg: Message{Op: "health"}, reply: make(chan Response, 1)}
	}
	resp := srv.dispatch(Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if resp.Code != CodeOverloaded {
		t.Fatalf("dispatch on a full ring: %+v, want code %q", resp, CodeOverloaded)
	}
	if resp.RetryAfterSecs <= 0 {
		t.Fatalf("overloaded refusal carries no retry hint: %+v", resp)
	}
	if got := srv.met.overloaded.Value(); got != 1 {
		t.Fatalf("overloaded counter = %d, want 1", got)
	}
}

// TestAutoIDAfterMigrateOut is the satellite-3 regression: the
// historical auto-id scheme derived ids from len(exec.Jobs()), so a
// migrate-out (which shrinks the job set) made the next auto submit
// re-mint an id the journal still remembered and bounce an innocent
// client with "duplicate job id". The counter must be monotonic within
// an incarnation and recovered from the journal across restarts.
func TestAutoIDAfterMigrateOut(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)

	first := c.call(t, Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !first.OK || first.ID == "" {
		t.Fatalf("auto submit: %+v", first)
	}
	out := c.call(t, Message{Op: "migrate-out", ID: first.ID})
	if !out.OK || out.Job == nil {
		t.Fatalf("migrate-out %s: %+v", first.ID, out)
	}
	second := c.call(t, Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !second.OK {
		t.Fatalf("auto submit after migrate-out bounced: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatalf("auto id %q re-minted after migrate-out", second.ID)
	}

	// Across a restart the counter recovers past every journaled id —
	// including the migrated-away one.
	c2 := d.restart(t)
	third := c2.call(t, Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !third.OK {
		t.Fatalf("auto submit after restart bounced: %+v", third)
	}
	if third.ID == first.ID || third.ID == second.ID {
		t.Fatalf("auto id %q re-minted after restart (existing: %q, %q)", third.ID, first.ID, second.ID)
	}
	c2.drain(t)
}
