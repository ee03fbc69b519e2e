package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rotary/internal/admission"
	"rotary/internal/invariants"
	"rotary/internal/obs"
	"rotary/internal/sim"
)

// newTenantDaemon is a durable daemon whose executor carries a
// tenant-quota admission controller and weighted fair share.
func newTenantDaemon(t *testing.T, table admission.TenantTable) *daemon {
	return newDaemon(t, daemon{durable: true, admit: &admission.Config{Tenants: table}})
}

func TestTenantQuotaRefusalOverSocket(t *testing.T) {
	d := newTenantDaemon(t, admission.TenantTable{
		Tenants: map[string]admission.TenantQuota{
			"b": {RatePerSec: 0.5, Burst: 1},
		},
	})
	d.start(t)
	c := dial(t, d.socket)

	stmt := "q1 ACC MIN 60% WITHIN 900 SECONDS"
	r1 := c.call(t, Message{Op: "submit", ID: "quota-1", Tenant: "b", Statement: stmt})
	if !r1.OK {
		t.Fatalf("first submit refused: %+v", r1)
	}
	if r1.Tenant != "b" {
		t.Fatalf("tenant not echoed: %+v", r1)
	}

	// Same virtual instant: the bucket holds burst-1 tokens now, so the
	// second submit must come back as a typed quota refusal with the
	// controller's retry horizon, not a generic admission error.
	r2 := c.call(t, Message{Op: "submit", ID: "quota-2", Tenant: "b", Statement: stmt})
	if r2.OK {
		t.Fatalf("over-quota submit admitted: %+v", r2)
	}
	if r2.Code != CodeTenantQuota {
		t.Fatalf("code = %q, want %q (%+v)", r2.Code, CodeTenantQuota, r2)
	}
	if r2.RetryAfterSecs <= 0 {
		t.Fatalf("quota refusal carries no retry hint: %+v", r2)
	}
	if r2.Status != "rejected" {
		t.Fatalf("status = %q, want rejected", r2.Status)
	}

	// After the hinted horizon the bucket has refilled and the tenant is
	// welcome again.
	if r := c.call(t, Message{Op: "advance", Seconds: r2.RetryAfterSecs + 0.001}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	if r := c.call(t, Message{Op: "submit", ID: "quota-3", Tenant: "b", Statement: stmt}); !r.OK {
		t.Fatalf("post-hint submit refused: %+v", r)
	}

	// Malformed tenant ids are refused at the protocol boundary before
	// they can reach journals or metric labels. (Invalid UTF-8 cannot be
	// probed through this JSON client — encoding/json replaces it with
	// U+FFFD on both marshal and unmarshal — so that arm of
	// ValidateTenant is exercised by the fuzz harness instead.)
	for _, bad := range []string{"ctl\x01chars", strings.Repeat("x", maxTenantBytes+1)} {
		r := c.call(t, Message{Op: "submit", Tenant: bad, Statement: stmt})
		if r.OK || r.Code != CodeBadRequest {
			t.Fatalf("tenant %q: got %+v, want %s", bad, r, CodeBadRequest)
		}
	}
}

// quotaVerdict is the externally observable admission outcome of one
// submission — exactly the fields the determinism contract promises to
// reproduce bit-identically across restarts.
type quotaVerdict struct {
	OK    bool
	Code  string
	Retry float64
}

// runQuotaScript drives steps [from, to) of a scripted submission
// sequence: each step advances the virtual clock by gap[i] seconds and
// then submits one job for the tenant, recording the verdict.
func runQuotaScript(t *testing.T, c *client, tenant, prefix string, gaps []float64, from, to int) []quotaVerdict {
	t.Helper()
	out := make([]quotaVerdict, 0, to-from)
	for i := from; i < to; i++ {
		if gaps[i] > 0 {
			if r := c.call(t, Message{Op: "advance", Seconds: gaps[i]}); !r.OK {
				t.Fatalf("advance step %d: %+v", i, r)
			}
		}
		r := c.call(t, Message{
			Op: "submit", ID: fmt.Sprintf("%s-%02d", prefix, i), Tenant: tenant,
			Statement: "q6 ACC MIN 50% WITHIN 2000 SECONDS",
		})
		out = append(out, quotaVerdict{OK: r.OK, Code: r.Code, Retry: r.RetryAfterSecs})
	}
	return out
}

// TestTenantBucketReplayDeterminism is the satellite (c) proof: the
// token bucket refills from the virtual clock only, mutates only on
// final admission, and is rebuilt from the journal on restart — so an
// identical submission script yields bit-identical verdicts whether the
// daemon ran uninterrupted or was SIGKILLed mid-script and recovered.
func TestTenantBucketReplayDeterminism(t *testing.T) {
	table := admission.TenantTable{
		Tenants: map[string]admission.TenantQuota{
			"b": {RatePerSec: 0.25, Burst: 2},
		},
	}
	gaps := []float64{0, 1, 3, 0, 8, 0, 2, 4, 0, 1, 6, 0}

	control := newTenantDaemon(t, table)
	control.start(t)
	want := runQuotaScript(t, dial(t, control.socket), "b", "det", gaps, 0, len(gaps))
	control.kill()

	crash := newTenantDaemon(t, table)
	crash.start(t)
	got := runQuotaScript(t, dial(t, crash.socket), "b", "det", gaps, 0, 6)
	kc := crash.restart(t)
	if r := kc.call(t, Message{Op: "resume"}); r.Code != CodeServerRestarted && !r.OK {
		t.Fatalf("resume after restart: %+v", r)
	}
	got = append(got, runQuotaScript(t, kc, "b", "det", gaps, 6, len(gaps))...)

	if len(got) != len(want) {
		t.Fatalf("verdict count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d diverged across restart: got %+v, want %+v\nall: got %+v\nwant %+v",
				i, got[i], want[i], got, want)
		}
	}
}

// reframeJournal rewrites every record in the harness's journal through
// mutate, re-framing each line with a fresh CRC. It parses the RJNL1
// framing independently of the implementation so the test would catch a
// framing drift too.
func reframeJournal(t *testing.T, dir string, mutate func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != journalMagic {
			t.Fatalf("unexpected journal framing: %q", line)
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(parts[2]), &rec); err != nil {
			t.Fatalf("journal payload: %v", err)
		}
		mutate(rec)
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		fmt.Fprintf(&out, "%s %08x %s\n", journalMagic, crc32.ChecksumIEEE(payload), payload)
	}
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
}

// TestJournalForwardCompat is the satellite (b) regression: a journal
// written by a FUTURE rotary version — every record carrying fields
// this build has never heard of — must still replay cleanly, ignoring
// the unknown fields and recovering every job with its tenant intact.
func TestJournalForwardCompat(t *testing.T) {
	d := newTenantDaemon(t, admission.TenantTable{
		Tenants: map[string]admission.TenantQuota{"alpha": {Weight: 2}},
	})
	d.start(t)
	c := dial(t, d.socket)
	if r := c.call(t, Message{Op: "submit", ID: "fc-alpha", Tenant: "alpha",
		Statement: "q1 ACC MIN 60% WITHIN 2000 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	if r := c.call(t, Message{Op: "submit", ID: "fc-default",
		Statement: "q3 ACC MIN 55% WITHIN 2000 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 5}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	d.kill()

	reframeJournal(t, d.dir, func(rec map[string]any) {
		rec["future_schema"] = 7
		rec["future_hints"] = map[string]any{"placement": []any{"rack-1", "rack-2"}, "qos": 0.99}
		if jobs, ok := rec["jobs"].([]any); ok {
			for _, j := range jobs {
				if m, ok := j.(map[string]any); ok {
					m["future_job_field"] = "ignored"
				}
			}
		}
	})

	d.start(t)
	c = dial(t, d.socket)
	r := c.call(t, Message{Op: "resume"})
	if r.Recovered < 2 {
		t.Fatalf("recovered %d jobs from future-versioned journal, want >= 2 (%+v)", r.Recovered, r)
	}
	st := c.call(t, Message{Op: "status", ID: "fc-alpha"})
	if !st.OK || terminalStatus(st.Status) {
		t.Fatalf("fc-alpha after future-journal replay: %+v", st)
	}
	if st.Tenant != "alpha" {
		t.Fatalf("tenant lost through future-journal replay: %+v", st)
	}
	if st = c.call(t, Message{Op: "status", ID: "fc-default"}); !st.OK || terminalStatus(st.Status) {
		t.Fatalf("fc-default after future-journal replay: %+v", st)
	}
}

// stubServer is a minimal line server for client retry tests: it
// answers the resume handshake and hands every other request to the
// script function. submits counts how many non-resume requests landed.
type stubServer struct {
	ln      net.Listener
	mu      sync.Mutex
	served  int
	script  func(n int) Response
	closing bool
}

func startStubServer(t *testing.T, socket string, script func(n int) Response) *stubServer {
	t.Helper()
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("stub listen: %v", err)
	}
	s := &stubServer{ln: ln, script: script}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serveConn(conn)
		}
	}()
	t.Cleanup(func() {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
		ln.Close()
	})
	return s
}

func (s *stubServer) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		var m Message
		if json.Unmarshal(sc.Bytes(), &m) != nil {
			return
		}
		if m.Op == "resume" {
			enc.Encode(Response{OK: true, ServerEpoch: 1})
			continue
		}
		s.mu.Lock()
		n := s.served
		s.served++
		s.mu.Unlock()
		enc.Encode(s.script(n))
	}
}

func (s *stubServer) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// TestClientHonorsRetryHints is the satellite (a) suite: serve.Client
// sleeps for the server-supplied retry_after_secs on hinted refusals
// (shard-unavailable and, when opted in, over-quota) instead of blind
// exponential backoff, and surfaces the typed refusal — not an error —
// when the hints never clear.
func TestClientHonorsRetryHints(t *testing.T) {
	newStub := func(t *testing.T, script func(n int) Response) (*stubServer, *Client) {
		socket := filepath.Join(t.TempDir(), "stub.sock")
		s := startStubServer(t, socket, script)
		c, err := NewClient(ClientConfig{
			Socket: socket, Attempts: 6, Backoff: time.Millisecond,
			RetryHinted: true, RetryOverQuota: true,
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return s, c
	}

	t.Run("quota-hint-then-admit", func(t *testing.T) {
		s, c := newStub(t, func(n int) Response {
			if n < 2 {
				return Response{Code: CodeTenantQuota, Error: "over quota", RetryAfterSecs: 0.03}
			}
			return Response{OK: true, ID: "ok-1", Status: "pending"}
		})
		start := time.Now()
		resp, err := c.Do(Message{Op: "submit", Tenant: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if err != nil || !resp.OK {
			t.Fatalf("Do: resp %+v err %v", resp, err)
		}
		if got := s.count(); got != 3 {
			t.Fatalf("server saw %d submits, want 3", got)
		}
		// Two hinted waits of 30ms each must have elapsed — the hint, not
		// the 1ms backoff, paced the retries.
		if el := time.Since(start); el < 50*time.Millisecond {
			t.Fatalf("retries too fast (%v): hint not honored", el)
		}
	})

	t.Run("shard-unavailable-hint", func(t *testing.T) {
		s, c := newStub(t, func(n int) Response {
			if n == 0 {
				return Response{Code: CodeShardUnavailable, Error: "restarting", RetryAfterSecs: 0.02}
			}
			return Response{OK: true, Status: "pending"}
		})
		resp, err := c.Do(Message{Op: "submit", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if err != nil || !resp.OK {
			t.Fatalf("Do: resp %+v err %v", resp, err)
		}
		if got := s.count(); got != 2 {
			t.Fatalf("server saw %d submits, want 2", got)
		}
	})

	t.Run("opt-out-returns-refusal-immediately", func(t *testing.T) {
		socket := filepath.Join(t.TempDir(), "stub.sock")
		s := startStubServer(t, socket, func(n int) Response {
			return Response{Code: CodeTenantQuota, Error: "over quota", RetryAfterSecs: 5}
		})
		c, err := NewClient(ClientConfig{Socket: socket, Attempts: 6, Backoff: time.Millisecond})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		defer c.Close()
		resp, err := c.Do(Message{Op: "submit", Tenant: "b", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if err != nil || resp.OK || resp.Code != CodeTenantQuota {
			t.Fatalf("Do: resp %+v err %v, want immediate typed refusal", resp, err)
		}
		if got := s.count(); got != 1 {
			t.Fatalf("server saw %d submits, want 1 (no hinted retries without opt-in)", got)
		}
	})

	t.Run("exhausted-hints-surface-last-refusal", func(t *testing.T) {
		s, c := newStub(t, func(n int) Response {
			return Response{Code: CodeShardUnavailable, Error: "still down", RetryAfterSecs: 0.005}
		})
		resp, err := c.Do(Message{Op: "status", ID: "x"})
		if err != nil {
			t.Fatalf("exhausted hints must return the refusal, not an error: %v", err)
		}
		if resp.OK || resp.Code != CodeShardUnavailable {
			t.Fatalf("resp = %+v, want shard-unavailable refusal", resp)
		}
		if got := s.count(); got != 6 {
			t.Fatalf("server saw %d attempts, want all 6", got)
		}
	})
}

// noisyPlan builds the seeded two-tenant workload: a handful of
// well-behaved tenant-a queries (plus one infeasibly tight one) against
// a 20x Poisson flood from tenant b, whose submits may be refused.
func noisyPlan(seed int64) (aJobs, bJobs []chaosEvent) {
	queries := []string{"q1", "q3", "q5", "q6"}
	r := sim.NewRand(uint64(seed) ^ 0x70a11)
	for i := 0; i < 6; i++ {
		at := 10 + float64(i)*40 + r.Float64()*10
		acc := 50 + 5*(i%3)
		aJobs = append(aJobs, chaosEvent{
			at: at, id: fmt.Sprintf("a-%d-%d", seed, i), tenant: "a",
			stmt: fmt.Sprintf("%s ACC MIN %d%% WITHIN 2000 SECONDS", queries[i%len(queries)], acc),
		})
	}
	// One deliberately hopeless deadline: it must terminate the same way
	// with or without the noisy neighbor.
	aJobs = append(aJobs, chaosEvent{
		at: 95, id: fmt.Sprintf("a-%d-tight", seed), tenant: "a",
		stmt: "q1 ACC MIN 99% WITHIN 3 SECONDS",
	})
	// Tenant b: Poisson arrivals, mean inter-arrival 1.8s over [0, 260) —
	// roughly 20x tenant a's submission rate.
	br := sim.NewRand(uint64(seed) ^ 0x6e0155)
	at := 0.0
	for i := 0; ; i++ {
		at += br.Exp(1.8)
		if at >= 260 {
			break
		}
		bJobs = append(bJobs, chaosEvent{
			at: at, id: fmt.Sprintf("b-%d-%03d", seed, i), tenant: "b",
			stmt: "q6 ACC MIN 50% WITHIN 2000 SECONDS", untracked: true,
		})
	}
	return aJobs, bJobs
}

// dumpTenantArtifact writes a per-tenant metrics snapshot for CI
// triage when ROTARY_CHAOS_ARTIFACTS names a directory.
func dumpTenantArtifact(t *testing.T, name string, stats map[string]admission.TenantStats, reg *obs.Registry) {
	dir := os.Getenv("ROTARY_CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	var b strings.Builder
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "tenant %s: %+v\n", n, stats[n])
	}
	if reg != nil {
		b.WriteString("\n--- registry ---\n")
		b.WriteString(reg.RenderText(false))
	}
	path := filepath.Join(dir, name+".tenants")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("tenant snapshot saved to %s", path)
}

// TestNoisyNeighborChaos is the tentpole isolation proof. At each seed,
// tenant a's workload runs twice over identical virtual timelines: a
// control run alone on a quiet daemon, and a chaos run sharing it with
// tenant b flooding submissions at ~20x a's rate while the daemon is
// SIGKILLed and recovered mid-flood at virtual second 130. Isolation
// holds when (1) every tenant-a job reaches the SAME terminal status as
// in the control, (2) per-job completion latency degrades by no more
// than the fair-share bound plus restart slack, (3) tenant b is
// demonstrably overloaded and mostly refused, and (4) the admission
// ledger, the obs counters, and the refusal arithmetic reconcile
// exactly.
func TestNoisyNeighborChaos(t *testing.T) {
	table := admission.TenantTable{
		Tenants: map[string]admission.TenantQuota{
			"a": {Weight: 4},
			"b": {Weight: 1, RatePerSec: 0.1, Burst: 3, MaxActive: 2, MaxPending: 2},
		},
	}
	// run drives one plan, then sweeps tenant a's jobs in 50-virtual-second
	// steps: the step at which each is first seen terminal is its
	// completion latency in deterministic units.
	run := func(t *testing.T, plan []chaosEvent) (*daemon, map[string]string, map[string]int) {
		d := newTenantDaemon(t, table)
		d.start(t)
		c, ids := drive(t, dial(t, d.socket), plan, func(float64) *client {
			c := d.restart(t)
			if r := c.call(t, Message{Op: "resume"}); !r.OK && r.Code != CodeServerRestarted {
				t.Fatalf("resume after chaos kill: %+v", r)
			}
			return c
		})
		status, doneStep := sweep(t, c, ids, 50, 80)
		d.kill()
		return d, status, doneStep
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			aJobs, bJobs := noisyPlan(seed)
			if len(bJobs) < 20*len(aJobs) {
				t.Fatalf("plan too quiet: %d b-jobs for %d a-jobs, want 20x", len(bJobs), len(aJobs))
			}
			_, ctrlStatus, ctrlStep := run(t, aJobs)

			mixed := append(append(append([]chaosEvent(nil), aJobs...), bJobs...), chaosEvent{at: 130, kind: "kill"})
			sort.SliceStable(mixed, func(i, j int) bool {
				if mixed[i].at != mixed[j].at {
					return mixed[i].at < mixed[j].at
				}
				return mixed[i].id < mixed[j].id
			})
			chaos, chaosStatus, chaosStep := run(t, mixed)
			stats := chaos.ctrl.TenantStats()
			defer func() {
				if t.Failed() {
					dumpTenantArtifact(t, fmt.Sprintf("noisy-seed%d", seed), stats, chaos.reg)
				}
			}()

			// (1) Terminal outcomes are untouched by the neighbor + crash.
			if err := invariants.SameOutcomes(ctrlStatus, chaosStatus); err != nil {
				t.Error(err)
			}
			// (2) Completion latency stays within the fair-share epsilon:
			// weight 4-of-5 entitles tenant a to >= 80%% of the machine, so
			// a 2x step bound plus 3 steps of restart slack is generous and
			// still catches starvation outright.
			for id, step := range ctrlStep {
				if limit := 2*step + 3; chaosStep[id] > limit {
					t.Errorf("job %s: finished at step %d under chaos, control %d (limit %d)",
						id, chaosStep[id], step, limit)
				}
			}
			// (3) The neighbor really was noisy — and mostly turned away.
			// Stats are incarnation-local; the post-restart era alone must
			// still show a heavy, mostly-refused flood.
			b := stats["b"]
			if b.Submitted < len(bJobs)/3 {
				t.Errorf("tenant b post-restart submissions = %d, want >= %d", b.Submitted, len(bJobs)/3)
			}
			if b.Rejected == 0 || b.Rejected <= b.Admitted {
				t.Errorf("tenant b not meaningfully gated: %+v", b)
			}
			// (4) Ledger arithmetic and obs counters reconcile exactly.
			for name, st := range stats {
				if st.Submitted != st.Admitted+st.Rejected {
					t.Errorf("tenant %s ledger does not reconcile: %+v", name, st)
				}
				gateRej := st.RateRejections + st.ActiveCapRejections + st.QueueCapRejections
				if gateRej > st.Rejected {
					t.Errorf("tenant %s gate refusals exceed total: %+v", name, st)
				}
				series := func(metric string) string {
					return fmt.Sprintf("rotary_admission_tenant_%s{tenant=%q}", metric, name)
				}
				if err := invariants.RegistryAgrees(chaos.reg, map[string]int{
					series("submitted_total"): st.Submitted,
					series("admitted_total"):  st.Admitted,
					series("rejected_total"):  st.Rejected,
				}); err != nil {
					t.Errorf("tenant %s: %v", name, err)
				}
			}
			// The journal-state gauges agree with the journal's own ledger.
			_, compactions, size, snapshot := chaos.jl.Stats()
			if err := invariants.RegistryAgrees(chaos.reg, map[string]int64{
				"rotary_serve_journal_compactions_total": compactions,
				"rotary_serve_journal_size_bytes":        size,
				"rotary_serve_journal_snapshot_bytes":    snapshot,
			}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRouterTenantCoLocation checks the sharded path: the tenant id is
// the placement key, so every submission from one tenant lands on the
// same shard regardless of job id.
func TestRouterTenantCoLocation(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 3,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, filepath.Join(base, "r.sock"))
	shard := -1
	for i := 0; i < 6; i++ {
		resp := c.call(t, Message{Op: "submit", ID: fmt.Sprintf("colo-%d", i), Tenant: "acme",
			Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if !resp.OK {
			t.Fatalf("submit %d: %+v", i, resp)
		}
		if shard == -1 {
			shard = resp.Shard
		} else if resp.Shard != shard {
			t.Fatalf("tenant acme split across shards %d and %d", shard, resp.Shard)
		}
	}
	// A different tenant is free to land elsewhere; an untenanted job
	// hashes by id. Neither must disturb acme's placement.
	if resp := c.call(t, Message{Op: "submit", ID: "colo-free", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
		t.Fatalf("untenanted submit: %+v", resp)
	}
	if resp := c.call(t, Message{Op: "submit", ID: "colo-7", Tenant: "acme",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != shard {
		t.Fatalf("tenant acme moved after interleaved traffic: %+v, want shard %d", resp, shard)
	}
	_ = r
}
