package serve

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rotary/internal/diskio"
)

// TestJournalHealRollsToFreshSegment is the journal-level heal
// lifecycle: a forced disk fault latches the journal degraded, Heal
// fails while the fault persists, and once the fault clears Heal rolls
// to a verified fresh segment, lifts the latch, and the full chain
// replays every record — pre-fault, and post-heal — after a reopen.
func TestJournalHealRollsToFreshSegment(t *testing.T) {
	dir := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 1})
	jl, err := OpenJournalIO(dir, faulty)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	defer jl.Close()
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "pre", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 1},
		Record{Kind: recVerdict, ID: "pre", Status: "admitted", At: 1},
	); err != nil {
		t.Fatalf("Append: %v", err)
	}

	faulty.ForceFail(nil) // ENOSPC until cleared
	if err := jl.Append(Record{Kind: recClock, At: 2}); err == nil {
		t.Fatal("append succeeded inside the fault window")
	}
	if jl.Degraded() == nil {
		t.Fatal("journal not degraded after failed append")
	}
	// Healing against a disk that is still failing must fail and leave
	// the latch in place.
	if err := jl.Heal(); err == nil {
		t.Fatal("Heal succeeded while the disk still faults")
	}
	if jl.Degraded() == nil {
		t.Fatal("failed heal lifted the latch")
	}
	if _, failures := jl.HealStats(); failures == 0 {
		t.Fatal("failed heal not counted")
	}

	faulty.Clear()
	if err := jl.Heal(); err != nil {
		t.Fatalf("Heal after fault cleared: %v", err)
	}
	if jl.Degraded() != nil {
		t.Fatalf("journal still degraded after heal: %v", jl.Degraded())
	}
	if jl.Segment() == 0 {
		t.Fatal("heal did not roll to a new segment")
	}
	if heals, _ := jl.HealStats(); heals != 1 {
		t.Fatalf("heals = %d, want 1", heals)
	}
	// Durable appends resume on the fresh segment.
	if err := jl.Append(
		Record{Kind: recSubmit, ID: "post", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: 3},
		Record{Kind: recVerdict, ID: "post", Status: "admitted", At: 3},
	); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	jl.Close()

	// The chain replays both sides of the heal, and the recovery barrier
	// survives as the cumulative heal count.
	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if rec.Heals != 1 {
		t.Fatalf("replayed heal count %d, want 1", rec.Heals)
	}
	byID := map[string]JobRecord{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	for _, id := range []string{"pre", "post"} {
		if j, ok := byID[id]; !ok || j.Status != "pending" {
			t.Fatalf("job %s after heal+reopen: %+v (jobs %+v)", id, j, rec.Jobs)
		}
	}
}

// TestJournalHealsSurviveCompaction: the heal count lives in the
// recovery barrier of the segment Heal rolls to, and a compaction
// supersedes that segment, so its snapshot must carry the count on.
func TestJournalHealsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 1})
	jl, err := OpenJournalIO(dir, faulty)
	if err != nil {
		t.Fatalf("OpenJournalIO: %v", err)
	}
	defer jl.Close()
	faulty.ForceFail(nil)
	if err := jl.Append(Record{Kind: recClock, At: 1}); err == nil {
		t.Fatal("append succeeded inside the fault window")
	}
	faulty.Clear()
	if err := jl.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	jl.SetCompactBytes(512)
	for i := 0; ; i++ {
		if _, compactions, _, _ := jl.Stats(); compactions == 1 {
			break
		} else if i == 1000 {
			t.Fatalf("%d compactions after %d appends over a 512-byte threshold, want 1", compactions, i)
		}
		id := fmt.Sprintf("j%02d", i)
		if err := jl.Append(Record{Kind: recSubmit, ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS", At: float64(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	jl.Close()
	if rec := openTestJournal(t, dir).Recovered(); rec.Heals != 1 {
		t.Fatalf("replayed heal count after a compaction %d, want 1", rec.Heals)
	}
}

// TestJournalHealIdempotentWhenHealthy: Heal on a healthy journal is a
// no-op — no segment roll, no counted heal.
func TestJournalHealIdempotentWhenHealthy(t *testing.T) {
	jl := openTestJournal(t, t.TempDir())
	if err := jl.Heal(); err != nil {
		t.Fatalf("Heal on healthy journal: %v", err)
	}
	if jl.Segment() != 0 {
		t.Fatal("no-op heal rolled the segment")
	}
	if heals, failures := jl.HealStats(); heals != 0 || failures != 0 {
		t.Fatalf("no-op heal moved stats: %d/%d", heals, failures)
	}
}

// TestServerHealsDegradedJournalWithoutRestart is the tentpole
// acceptance property: a server whose journal faults clear must lift
// the degraded latch and resume durable acks WITHOUT a restart — same
// incarnation, same server epoch, journal rolled to a fresh segment —
// and the jobs from the failed fault-window group commit must be
// durable after the heal, not ghosts only the executor remembers.
func TestServerHealsDegradedJournalWithoutRestart(t *testing.T) {
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 7})
	d := newDaemon(t, daemon{durable: true, dio: faulty, cfg: Config{HealProbeSecs: 0.01}})
	d.start(t)
	c := dial(t, d.socket)

	if r := c.call(t, Message{Op: "submit", ID: "pre", ReqID: "req-pre",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit pre: %+v", r)
	}
	epoch0 := c.call(t, Message{Op: "resume"}).ServerEpoch

	// Open the fault window: the next group commit fails, so the reply is
	// withheld and replaced with the typed degraded refusal.
	faulty.ForceFail(nil)
	r := c.call(t, Message{Op: "submit", ID: "window", ReqID: "req-window",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if r.Code != CodeJournalDegraded {
		t.Fatalf("submit during fault window: %+v, want journal-degraded", r)
	}
	if r.RetryAfterSecs <= 0 {
		t.Fatalf("degraded refusal carried no retry hint: %+v", r)
	}
	// While degraded, state-changing ops are refused upfront.
	if r := c.call(t, Message{Op: "submit", ID: "refused",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.Code != CodeJournalDegraded {
		t.Fatalf("submit while degraded: %+v, want upfront refusal", r)
	}
	if hr := c.call(t, Message{Op: "health"}); hr.Status != "journal-degraded" {
		t.Fatalf("health while degraded: %+v", hr)
	}

	// The disk recovers. The next probed request heals the journal and
	// durable acks resume — no restart.
	faulty.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(20 * time.Millisecond)
		r = c.call(t, Message{Op: "submit", ID: "post", ReqID: "req-post",
			Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if r.OK {
			break
		}
		if r.Code != CodeJournalDegraded && r.Code != CodeDuplicateRequest {
			t.Fatalf("submit after fault cleared: %+v", r)
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never healed; last reply %+v", r)
		}
	}
	if hr := c.call(t, Message{Op: "health"}); hr.Status != "healthy" {
		t.Fatalf("health after heal: %+v", hr)
	}
	if got := c.call(t, Message{Op: "resume"}).ServerEpoch; got != epoch0 {
		t.Fatalf("server epoch moved %d -> %d: heal must not restart", epoch0, got)
	}
	if d.jl.Segment() == 0 {
		t.Fatal("journal did not roll to a fresh segment")
	}
	if heals, _ := d.jl.HealStats(); heals == 0 {
		t.Fatal("no heal recorded")
	}

	// The fault-window job's records were shelved and replayed onto the
	// fresh segment: a restart must recover it alongside the others.
	c2 := d.restart(t)
	for _, id := range []string{"pre", "window", "post"} {
		if r := c2.call(t, Message{Op: "status", ID: id}); !r.OK {
			t.Fatalf("status %s after heal+restart: %+v", id, r)
		}
	}
}

// TestGroupCommitsCountOnlyDurableGroups: rotary_serve_group_commits_total
// counts the multi-record groups the journal made durable, so it agrees
// with the journal's own SyncStats — a group the disk refused inside a
// fault window is not a commit.
func TestGroupCommitsCountOnlyDurableGroups(t *testing.T) {
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 7})
	d := newDaemon(t, daemon{durable: true, dio: faulty})
	d.start(t)
	c := dial(t, d.socket)

	if r := c.call(t, Message{Op: "submit", ID: "good", ReqID: "req-good",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !r.OK {
		t.Fatalf("submit good: %+v", r)
	}
	faulty.ForceFail(nil)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("window-%d", i)
		if r := c.call(t, Message{Op: "submit", ID: id, ReqID: "req-" + id,
			Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.OK {
			t.Fatalf("submit %s acked inside the fault window: %+v", id, r)
		}
	}
	_, _, groups := d.jl.SyncStats()
	if groups != 1 {
		t.Fatalf("journal synced %d groups, want the one good submit's", groups)
	}
	if got, _ := d.reg.Value("rotary_serve_group_commits_total"); got != float64(groups) {
		t.Fatalf("rotary_serve_group_commits_total = %v, journal synced %d groups", got, groups)
	}
}

// TestServerJournalFailedAfterHealBudget: when the fault never clears,
// consecutive heal failures exhaust MaxHealFailures and health
// escalates from "journal-degraded" to "journal-failed" — the typed
// signal the shard supervisor keys restarts on. Probing stops: the
// failure count is capped, not unbounded.
func TestServerJournalFailedAfterHealBudget(t *testing.T) {
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 7})
	d := newDaemon(t, daemon{durable: true, dio: faulty, cfg: Config{HealProbeSecs: 0.001, MaxHealFailures: 2}})
	d.start(t)
	c := dial(t, d.socket)

	faulty.ForceFail(nil)
	if r := c.call(t, Message{Op: "submit", ID: "w",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); r.Code != CodeJournalDegraded {
		t.Fatalf("submit during fault window: %+v", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(5 * time.Millisecond)
		hr := c.call(t, Message{Op: "health"})
		if hr.Status == "journal-failed" {
			break
		}
		if hr.Status != "journal-degraded" {
			t.Fatalf("health = %+v, want degraded or failed", hr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never escalated to journal-failed: %+v", hr)
		}
	}
	if _, failures := d.jl.HealStats(); failures != 2 {
		t.Fatalf("heal failures = %d, want exactly MaxHealFailures=2 (probing must stop)", failures)
	}
	faulty.Clear()
}

// TestShardJournalFailureEscalatesToRestart is the supervised-restart
// companion proof: a shard whose journal faults persist past the heal
// budget reports "journal-failed", the supervisor kills and restarts
// it, and once the disk recovers the restart succeeds — the shard
// rejoins with a bumped server epoch and serves durable submits again.
func TestShardJournalFailureEscalatesToRestart(t *testing.T) {
	base := t.TempDir()
	faulty := diskio.NewFaulty(nil, diskio.FaultConfig{Seed: 42})
	r := startTestRouter(t, RouterConfig{
		Socket:          filepath.Join(base, "r.sock"),
		Shards:          1,
		Dir:             filepath.Join(base, "state"),
		Pace:            0,
		ProbeInterval:   20 * time.Millisecond,
		RestartBackoff:  10 * time.Millisecond,
		HealProbeSecs:   0.001,
		MaxHealFailures: 2,
		DiskIO:          func(int) diskio.IO { return faulty },
	})
	c := dial(t, r.cfg.Socket)

	if resp := c.call(t, Message{Op: "submit", ID: "pre",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
		t.Fatalf("submit pre: %+v", resp)
	}

	// Permanent fault: degrade the shard's journal and let its heal
	// budget burn out. The supervisor's probe must then take it down.
	faulty.ForceFail(nil)
	if resp := c.call(t, Message{Op: "submit", ID: "w",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); resp.Code != CodeJournalDegraded {
		t.Fatalf("submit during fault: %+v", resp)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := r.ShardState(0)
		if err != nil {
			t.Fatalf("ShardState: %v", err)
		}
		if st == ShardDown || st == ShardRestarting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never took the journal-failed shard down (state %v)", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart attempts fail while the disk still faults (the reopen needs
	// writes); once it recovers, the supervised restart goes through.
	faulty.Clear()
	waitShardState(t, r, 0, ShardRunning, 10*time.Second)

	// Post-restart: a new incarnation (epoch bumped past the journaled
	// history) serving durable submits, with the pre-fault job intact.
	resp := c.call(t, Message{Op: "submit", ID: "post",
		Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !resp.OK {
		t.Fatalf("submit after supervised restart: %+v", resp)
	}
	if st := c.call(t, Message{Op: "status", ID: "pre"}); !st.OK {
		t.Fatalf("pre-fault job lost across supervised restart: %+v", st)
	}
	shards := c.call(t, Message{Op: "shards"})
	if !shards.OK || len(shards.Shards) != 1 || shards.Shards[0].Restarts == 0 {
		t.Fatalf("shards report shows no supervised restart: %+v", shards)
	}
}
