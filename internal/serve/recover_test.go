package serve

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rotary/internal/core"
	"rotary/internal/invariants"
)

// TestRestartRecoversNonTerminalJobs is the core durability property:
// kill the daemon with admitted work in flight, restart over the same
// state directory, and every non-terminal job is re-registered, keeps
// its identity, and still terminates. Terminal jobs stay terminal and
// are not resubmitted.
func TestRestartRecoversNonTerminalJobs(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)

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

	c2 := d.restart(t)
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
	sweep(t, c2, []string{"live-a", "live-b"}, 2000, 1)
	if rec := d.exec.Recovery(); rec.Reattached != 2 {
		t.Fatalf("executor reattach count %+v, want 2", rec)
	}

	// A third incarnation after a clean kill: the terminal jobs must NOT
	// be re-registered.
	c3 := d.restart(t)
	res3 := c3.call(t, Message{Op: "resume"})
	if res3.Recovered != 0 || res3.Jobs != 0 {
		t.Fatalf("terminal jobs re-registered: %+v", res3)
	}
	// An idle restart already reports the journal it inherited, before
	// any append of its own.
	if _, _, size, _ := d.jl.Stats(); size == 0 || d.srv.met.journalSize.Value() != float64(size) {
		t.Fatalf("rotary_serve_journal_size_bytes = %v at boot, journal is %d bytes", d.srv.met.journalSize.Value(), size)
	}
	c3.drain(t)
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
		d := newDaemon(t, daemon{durable: true})
		d.start(t)
		c := dial(t, d.socket)
		var ids []string
		for _, s := range subs {
			if r := c.call(t, Message{Op: "submit", ID: s.id, Statement: s.stmt}); !r.OK {
				t.Fatalf("submit %s: %+v", s.id, r)
			}
			ids = append(ids, s.id)
		}
		if r := c.call(t, Message{Op: "advance", Seconds: 10}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		if killAt {
			c = d.restart(t)
		}
		got, _ := sweep(t, c, ids, 2000, 1)
		c.drain(t)
		return got
	}
	control := run(t, false)
	if err := invariants.SameOutcomes(control, run(t, true)); err != nil {
		t.Error(err)
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
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)
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
	d.kill()

	ckptDir := filepath.Join(d.dir, "ckpt")
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

	d.start(t) // OpenDurableIO runs the sweep with the journal's retain set
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
	c2 := dial(t, d.socket)
	if r := c2.call(t, Message{Op: "advance", Seconds: 2000}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	rec := d.exec.Recovery()
	if rec.Reattached != 2 {
		t.Fatalf("reattached %d jobs, want 2 (%+v)", rec.Reattached, rec)
	}
	if rec.ScratchRestarts != 0 {
		t.Fatalf("recovery fell back to %d scratch restarts despite retained checkpoints (%+v)", rec.ScratchRestarts, rec)
	}
	c2.drain(t)
}

// TestScratchFallbackWithoutCheckpoints removes every checkpoint before
// the restart: recovery must degrade to pristine scratch restarts —
// counted, not fatal — and the jobs still terminate.
func TestScratchFallbackWithoutCheckpoints(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)
	for _, id := range []string{"sc-a", "sc-b"} {
		if r := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 95% WITHIN 900 SECONDS"}); !r.OK {
			t.Fatalf("submit %s: %+v", id, r)
		}
	}
	if r := c.call(t, Message{Op: "advance", Seconds: 120}); !r.OK {
		t.Fatalf("advance: %+v", r)
	}
	d.kill()
	// Simulate losing the checkpoint volume (journal survives).
	ckpts, _ := filepath.Glob(filepath.Join(d.dir, "ckpt", "*.ckpt"))
	for _, p := range ckpts {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	d.start(t)
	c2 := dial(t, d.socket)
	if r := c2.call(t, Message{Op: "resume"}); r.Recovered != 2 {
		t.Fatalf("resume: %+v", r)
	}
	sweep(t, c2, []string{"sc-a", "sc-b"}, 2000, 1)
	if rec := d.exec.Recovery(); rec.ScratchRestarts != 2 {
		t.Fatalf("scratch restarts %d, want 2 (%+v)", rec.ScratchRestarts, rec)
	}
	c2.drain(t)
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
	run := func(plant bool) (map[string]string, *daemon) {
		d := newDaemon(t, daemon{durable: true})
		d.start(t)
		c := dial(t, d.socket)
		for _, id := range ids {
			if r := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 70% WITHIN 900 SECONDS"}); !r.OK {
				t.Fatalf("submit %s: %+v", id, r)
			}
		}
		if r := c.call(t, Message{Op: "advance", Seconds: 60}); !r.OK {
			t.Fatalf("advance: %+v", r)
		}
		d.kill()
		ckpts, _ := filepath.Glob(filepath.Join(d.dir, "ckpt", "*.ckpt"))
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
		d.tracer = core.NewTracer(0)
		d.start(t)
		c2 := dial(t, d.socket)
		statuses, _ := sweep(t, c2, ids, 2000, 1)
		c2.drain(t)
		return statuses, d
	}
	control, cd := run(false)
	if rec := cd.exec.Recovery(); rec.ScratchRestarts != 0 {
		t.Fatalf("control run scratch-restarted: %+v", rec)
	}
	planted, d := run(true)
	if err := invariants.SameOutcomes(control, planted); err != nil {
		t.Error(err)
	}
	if rec := d.exec.Recovery(); rec.ScratchRestarts != len(ids) {
		t.Errorf("scratch restarts %d, want %d (%+v)", rec.ScratchRestarts, len(ids), rec)
	}
	for _, id := range ids {
		var causes []string
		for _, ev := range d.tracer.JobEvents(id) {
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
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	c := dial(t, d.socket)
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

	c2 := d.restart(t)
	// Across the restart: the journal rebuilt the index.
	dup2 := c2.call(t, Message{Op: "submit", ReqID: "retry-1",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !dup2.OK || dup2.Code != CodeDuplicateRequest || dup2.ID != "dd" {
		t.Fatalf("cross-restart dedupe: %+v", dup2)
	}
	if n := len(d.exec.Jobs()); n != 1 {
		t.Fatalf("%d jobs registered after deduped resubmit, want 1", n)
	}
	c2.drain(t)
}

// TestClientReconnectAcrossRestart exercises the resilient client: a
// request issued after the daemon was killed and restarted transparently
// reconnects with backoff, and the resume handshake reports exactly one
// restart.
func TestClientReconnectAcrossRestart(t *testing.T) {
	d := newDaemon(t, daemon{durable: true})
	d.start(t)
	cl, err := NewClient(ClientConfig{Socket: d.socket, Backoff: 10 * time.Millisecond})
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

	d.kill()
	d.start(t)

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
