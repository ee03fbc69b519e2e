package serve

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// durableHarness rebuilds the full durable stack — journal, retained
// checkpoint store, executor, server — against one on-disk state
// directory, so tests can kill and restart incarnations at will. The
// catalog is regenerated from the same seed each start, matching a real
// daemon restart over the same dataset.
type durableHarness struct {
	dir    string
	socket string
	dio    diskio.IO // optional; nil is the real disk

	srv    *Server
	exec   *core.AQPExecutor
	tracer *core.Tracer // optional; attached to the next incarnation
	wg     *sync.WaitGroup
}

func newDurableHarness(t *testing.T) *durableHarness {
	t.Helper()
	base := t.TempDir()
	return &durableHarness{
		dir:    filepath.Join(base, "state"),
		socket: filepath.Join(base, "rotary.sock"),
	}
}

// start boots one incarnation and waits for the socket.
func (h *durableHarness) start(t *testing.T) {
	t.Helper()
	jl, store, err := OpenDurableIO(h.dir, h.dio)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	reg := obs.NewRegistry()
	store.SetObs(reg)
	ds := tpch.Generate(0.005, 1)
	cat := tpch.NewCatalog(ds, 1)
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	cfg.Obs = reg
	cfg.Store = store
	cfg.Tracer = h.tracer
	h.exec = core.NewAQPExecutor(cfg, baselines.RoundRobinAQP{}, nil)
	h.srv, err = New(Config{Socket: h.socket, Pace: 0, Obs: reg, Journal: jl}, h.exec, cat)
	if err != nil {
		jl.Close()
		t.Fatalf("New (durable): %v", err)
	}
	h.wg = serveAsync(t, h.srv)
}

// kill SIGKILLs the incarnation: no drain, no flush.
func (h *durableHarness) kill(t *testing.T) {
	t.Helper()
	h.srv.Kill()
	h.wg.Wait()
}

// TestRestartRecoversNonTerminalJobs is the core durability property:
// kill the daemon with admitted work in flight, restart over the same
// state directory, and every non-terminal job is re-registered, keeps
// its identity, and still terminates. Terminal jobs stay terminal and
// are not resubmitted.
func TestRestartRecoversNonTerminalJobs(t *testing.T) {
	h := newDurableHarness(t)
	h.start(t)
	c := dial(t, h.socket)

	for _, id := range []string{"live-a", "live-b"} {
		if r := c.call(t, Message{Op: "submit", ID: id, ReqID: "req-" + id,
			Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
			t.Fatalf("submit %s: %+v", id, r)
		}
	}
	// Make some progress, then kill mid-run.
	if r := c.call(t, Message{Op: "advance", Seconds: 5}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	epoch1 := c.call(t, Message{Op: "resume"}).ServerEpoch
	h.kill(t)

	h.start(t)
	c2 := dial(t, h.socket)
	res := c2.call(t, Message{Op: "resume", ServerEpoch: epoch1})
	if !res.OK || res.Code != CodeServerRestarted {
		t.Fatalf("resume after restart: %+v", res)
	}
	if res.ServerEpoch != epoch1+1 {
		t.Fatalf("server epoch %d after restart of epoch %d", res.ServerEpoch, epoch1)
	}
	if res.Recovered != 2 {
		t.Fatalf("recovered %d jobs, want 2", res.Recovered)
	}
	if res.VirtualNow < 5 {
		t.Fatalf("virtual clock rewound to %v, want >= 5", res.VirtualNow)
	}
	// No admitted job silently dropped: both ids still resolve.
	for _, id := range []string{"live-a", "live-b"} {
		if r := c2.call(t, Message{Op: "status", ID: id}); !r.OK {
			t.Fatalf("status %s after restart: %+v", id, r)
		}
	}
	// The recovered run still terminates.
	if r := c2.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	for _, id := range []string{"live-a", "live-b"} {
		r := c2.call(t, Message{Op: "status", ID: id})
		if !r.OK || r.Status == "pending" || r.Status == "running" {
			t.Fatalf("job %s not terminal after deadline: %+v", id, r)
		}
	}
	if rec := h.exec.Recovery(); rec.Reattached != 2 {
		t.Fatalf("executor reattach count %+v, want 2", rec)
	}

	// A third incarnation after a clean kill: the terminal jobs must NOT
	// be re-registered.
	h.kill(t)
	h.start(t)
	c3 := dial(t, h.socket)
	res3 := c3.call(t, Message{Op: "resume"})
	if res3.Recovered != 0 || res3.Jobs != 0 {
		t.Fatalf("terminal jobs re-registered: %+v", res3)
	}
	// An idle restart already reports the journal it inherited, before
	// any append of its own.
	if _, _, size, _ := h.srv.jl.Stats(); size == 0 || h.srv.met.journalSize.Value() != float64(size) {
		t.Fatalf("rotary_serve_journal_size_bytes = %v at boot, journal is %d bytes", h.srv.met.journalSize.Value(), size)
	}
	if r := c3.call(t, Message{Op: "drain"}); !r.OK {
		t.Fatalf("final drain: %+v", r)
	}
}

// TestRestartMatchesUninterruptedRun compares terminal statuses between
// an uninterrupted control run and a run killed and restarted mid-way:
// the durable arbiter must deliver the same outcomes, including the
// infeasible job expiring in both.
func TestRestartMatchesUninterruptedRun(t *testing.T) {
	subs := []struct{ id, stmt string }{
		{"ok-1", "q1 ACC MIN 60% WITHIN 900 SECONDS"},
		{"ok-2", "q6 ACC MIN 55% WITHIN 900 SECONDS"},
		{"tight", "q1 ACC MIN 99% WITHIN 3 SECONDS"},
	}
	run := func(t *testing.T, killAt bool) map[string]string {
		h := newDurableHarness(t)
		h.start(t)
		c := dial(t, h.socket)
		for _, s := range subs {
			if r := c.call(t, Message{Op: "submit", ID: s.id, Statement: s.stmt}); !r.OK {
				t.Fatalf("submit %s: %+v", s.id, r)
			}
		}
		if r := c.call(t, Message{Op: "advance", Seconds: 10}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		if killAt {
			h.kill(t)
			h.start(t)
			c = dial(t, h.socket)
		}
		if r := c.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		got := map[string]string{}
		for _, s := range subs {
			r := c.call(t, Message{Op: "status", ID: s.id})
			if !r.OK {
				t.Fatalf("status %s: %+v", s.id, r)
			}
			got[s.id] = r.Status
		}
		if r := c.call(t, Message{Op: "drain"}); !r.OK {
			t.Fatalf("drain: %+v", r)
		}
		return got
	}
	control := run(t, false)
	recovered := run(t, true)
	for id, want := range control {
		if recovered[id] != want {
			t.Errorf("job %s: recovered run ended %q, control %q", id, recovered[id], want)
		}
	}
	if control["tight"] != "expired" {
		t.Errorf("infeasible job ended %q in control, want expired", control["tight"])
	}
}

// TestSweepRetainsJournalReferencedCheckpoints is the regression test
// for the startup sweep: a restart mid-run must NOT delete the
// checkpoints of journal-referenced live jobs (their reattach targets),
// while genuinely stale files are still removed.
func TestSweepRetainsJournalReferencedCheckpoints(t *testing.T) {
	h := newDurableHarness(t)
	h.start(t)
	c := dial(t, h.socket)
	// Two competing q1 jobs on one pool: round-robin defers one per
	// round, so both accumulate disk checkpoints.
	for _, id := range []string{"cp-a", "cp-b"} {
		if r := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 95% WITHIN 900 SECONDS"}); !r.OK {
			t.Fatalf("submit %s: %+v", id, r)
		}
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 120}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	h.kill(t)

	ckptDir := filepath.Join(h.dir, "ckpt")
	before, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if len(before) == 0 {
		t.Fatalf("no checkpoints on disk at kill time — test premise broken")
	}
	// Plant a stale checkpoint no journal record references: the sweep
	// must still clear it.
	stale := filepath.Join(ckptDir, "ghost.ckpt")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	h.start(t) // OpenDurable runs the sweep with the journal's retain set
	after, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	kept := map[string]bool{}
	for _, p := range after {
		kept[filepath.Base(p)] = true
	}
	if kept["ghost.ckpt"] {
		t.Errorf("sweep retained the unreferenced ghost checkpoint")
	}
	for _, p := range before {
		if !kept[filepath.Base(p)] {
			t.Errorf("sweep deleted journal-referenced checkpoint %s", filepath.Base(p))
		}
	}

	// And the retained checkpoints are actually usable: the recovered
	// jobs reattach (rollback to persisted state), not scratch-restart.
	c2 := dial(t, h.socket)
	if r := c2.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	rec := h.exec.Recovery()
	if rec.Reattached != 2 {
		t.Fatalf("reattached %d jobs, want 2 (%+v)", rec.Reattached, rec)
	}
	if rec.ScratchRestarts != 0 {
		t.Fatalf("recovery fell back to %d scratch restarts despite retained checkpoints (%+v)", rec.ScratchRestarts, rec)
	}
	if r := c2.call(t, Message{Op: "drain"}); !r.OK {
		t.Fatalf("drain: %+v", r)
	}
}

// TestScratchFallbackWithoutCheckpoints removes every checkpoint before
// the restart: recovery must degrade to pristine scratch restarts —
// counted, not fatal — and the jobs still terminate.
func TestScratchFallbackWithoutCheckpoints(t *testing.T) {
	h := newDurableHarness(t)
	h.start(t)
	c := dial(t, h.socket)
	for _, id := range []string{"sc-a", "sc-b"} {
		if r := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 95% WITHIN 900 SECONDS"}); !r.OK {
			t.Fatalf("submit %s: %+v", id, r)
		}
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 120}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	h.kill(t)
	// Simulate losing the checkpoint volume (journal survives).
	ckpts, _ := filepath.Glob(filepath.Join(h.dir, "ckpt", "*.ckpt"))
	for _, p := range ckpts {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	h.start(t)
	c2 := dial(t, h.socket)
	if r := c2.call(t, Message{Op: "resume"}); r.Recovered != 2 {
		t.Fatalf("resume: %+v", r)
	}
	if r := c2.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	rec := h.exec.Recovery()
	if rec.ScratchRestarts != 2 {
		t.Fatalf("scratch restarts %d, want 2 (%+v)", rec.ScratchRestarts, rec)
	}
	for _, id := range []string{"sc-a", "sc-b"} {
		r := c2.call(t, Message{Op: "status", ID: id})
		if !r.OK || r.Status == "pending" || r.Status == "running" {
			t.Fatalf("job %s not terminal after scratch recovery: %+v", id, r)
		}
	}
	if r := c2.call(t, Message{Op: "drain"}); !r.OK {
		t.Fatalf("drain: %+v", r)
	}
}

// TestOldFormatCheckpointsRestartFromScratch plants version-1 frames —
// well-formed by the old rules, CRC and all, around the JSON payload the
// previous format carried — under a recovering daemon. The version byte
// rejects them as corrupt before the payload reaches the binary decoder,
// so each job replays from its pristine state and ends with the status it
// reaches when its checkpoints were left alone; the run never fails. (The
// target is loose enough that a replay from scratch still attains it
// inside the deadline — a restart costs time, not the outcome.)
func TestOldFormatCheckpointsRestartFromScratch(t *testing.T) {
	ids := []string{"v1-a", "v1-b"}
	run := func(plant bool) (map[string]string, *durableHarness) {
		h := newDurableHarness(t)
		h.start(t)
		c := dial(t, h.socket)
		for _, id := range ids {
			if r := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 70% WITHIN 900 SECONDS"}); !r.OK {
				t.Fatalf("submit %s: %+v", id, r)
			}
		}
		if r := c.call(t, Message{Op: "advance", Seconds: 60}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		h.kill(t)
		ckpts, _ := filepath.Glob(filepath.Join(h.dir, "ckpt", "*.ckpt"))
		if len(ckpts) != len(ids) {
			t.Fatalf("%d checkpoints on disk at kill time, want %d", len(ckpts), len(ids))
		}
		if plant {
			payload := []byte(`{"name":"q1","consumer":{"offsets":[7,7,7,7],"next":28,"read":28},"partials":[],"rows":28}`)
			frame := append([]byte("RCKP\x01\x00\x00\x00"), make([]byte, 8)...)
			binary.LittleEndian.PutUint32(frame[8:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[12:], crc32.ChecksumIEEE(payload))
			for _, p := range ckpts {
				if err := os.WriteFile(p, append(frame, payload...), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.tracer = core.NewTracer(0)
		h.start(t)
		c2 := dial(t, h.socket)
		if r := c2.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
			t.Fatalf("advance after restart (plant=%v): %+v", plant, r)
		}
		statuses := map[string]string{}
		for _, id := range ids {
			r := c2.call(t, Message{Op: "status", ID: id})
			if !r.OK || r.Status == "pending" || r.Status == "running" {
				t.Fatalf("job %s not terminal (plant=%v): %+v", id, plant, r)
			}
			statuses[id] = r.Status
		}
		if r := c2.call(t, Message{Op: "drain"}); !r.OK {
			t.Fatalf("drain: %+v", r)
		}
		return statuses, h
	}
	control, ch := run(false)
	if rec := ch.exec.Recovery(); rec.ScratchRestarts != 0 {
		t.Fatalf("control run scratch-restarted: %+v", rec)
	}
	planted, h := run(true)
	if !reflect.DeepEqual(planted, control) {
		t.Errorf("terminal statuses %v, control %v", planted, control)
	}
	if rec := h.exec.Recovery(); rec.ScratchRestarts != len(ids) {
		t.Errorf("scratch restarts %d, want %d (%+v)", rec.ScratchRestarts, len(ids), rec)
	}
	for _, id := range ids {
		var causes []string
		for _, ev := range h.tracer.JobEvents(id) {
			if ev.Kind == core.TraceRestart {
				causes = append(causes, ev.Detail)
			}
		}
		if !reflect.DeepEqual(causes, []string{"corrupt"}) {
			t.Errorf("job %s restart causes %v, want [corrupt]", id, causes)
		}
	}
}

// TestReqIDDedupeAcrossRestart: a client that lost a submit reply to a
// crash retries with the same req_id against the restarted daemon and
// gets the journaled job back instead of a duplicate.
func TestReqIDDedupeAcrossRestart(t *testing.T) {
	h := newDurableHarness(t)
	h.start(t)
	c := dial(t, h.socket)
	if r := c.call(t, Message{Op: "submit", ID: "dd", ReqID: "retry-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit: %+v", r)
	}
	// Same incarnation: the dedupe index answers immediately.
	dup := c.call(t, Message{Op: "submit", ReqID: "retry-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !dup.OK || dup.Code != CodeDuplicateRequest || dup.ID != "dd" {
		t.Fatalf("same-incarnation dedupe: %+v", dup)
	}
	h.kill(t)

	h.start(t)
	c2 := dial(t, h.socket)
	// Across the restart: the journal rebuilt the index.
	dup2 := c2.call(t, Message{Op: "submit", ReqID: "retry-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !dup2.OK || dup2.Code != CodeDuplicateRequest || dup2.ID != "dd" {
		t.Fatalf("cross-restart dedupe: %+v", dup2)
	}
	if n := len(h.exec.Jobs()); n != 1 {
		t.Fatalf("%d jobs registered after deduped resubmit, want 1", n)
	}
	if r := c2.call(t, Message{Op: "drain"}); !r.OK {
		t.Fatalf("drain: %+v", r)
	}
}

// TestClientReconnectAcrossRestart exercises the resilient client: a
// request issued after the daemon was killed and restarted transparently
// reconnects with backoff, and the resume handshake reports exactly one
// restart.
func TestClientReconnectAcrossRestart(t *testing.T) {
	h := newDurableHarness(t)
	h.start(t)
	cl, err := NewClient(ClientConfig{Socket: h.socket, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if r, err := cl.Do(Message{Op: "submit", ID: "rc", ReqID: "rc-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); err != nil || !r.OK {
		t.Fatalf("submit via client: %v %+v", err, r)
	}
	epoch := cl.ServerEpoch()
	if epoch == 0 {
		t.Fatalf("client never learned the server epoch")
	}

	h.kill(t)
	h.start(t)

	// The old connection is dead; Do must reconnect and succeed.
	r, err := cl.Do(Message{Op: "status", ID: "rc"})
	if err != nil || !r.OK {
		t.Fatalf("status across restart: %v %+v", err, r)
	}
	if cl.Restarts() != 1 {
		t.Fatalf("client observed %d restarts, want 1", cl.Restarts())
	}
	if cl.ServerEpoch() != epoch+1 {
		t.Fatalf("client epoch %d after restart of %d", cl.ServerEpoch(), epoch)
	}
	// An idempotent resubmit through the client dedupes.
	dup, err := cl.Do(Message{Op: "submit", ReqID: "rc-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if err != nil || !dup.OK || dup.Code != CodeDuplicateRequest {
		t.Fatalf("client resubmit: %v %+v", err, dup)
	}
	if r, err := cl.Do(Message{Op: "drain"}); err != nil || !r.OK {
		t.Fatalf("drain via client: %v %+v", err, r)
	}
}
