package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rotary/internal/core"
	"rotary/internal/obs"
	"rotary/internal/tpch"
)

// idOwnedBy finds a job id whose consistent-hash owner is the given
// shard — the ring is a pure function of the id, so tests can steer
// submissions deterministically.
func idOwnedBy(t *testing.T, r *Router, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("own-%d-%d", shard, i)
		if r.ring.Owner(id, func(int) bool { return true }) == shard {
			return id
		}
	}
	t.Fatalf("no id hashing to shard %d in 10000 candidates", shard)
	return ""
}

// TestRouterSubmitRoutingAndStatus: the router speaks the single-server
// protocol over N shards — submits land on their hash-owners, status
// answers from wherever the job lives, stats and metrics fan in across
// the fleet.
func TestRouterSubmitRoutingAndStatus(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 3,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)

	used := map[int]bool{}
	var ids []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("rt-%d", i)
		resp := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if !resp.OK {
			t.Fatalf("submit %s: %+v", id, resp)
		}
		if resp.Shard < 0 || resp.Shard >= 3 {
			t.Fatalf("submit %s routed to shard %d", id, resp.Shard)
		}
		used[resp.Shard] = true
		ids = append(ids, id)
		// Status must answer from the same shard the submit landed on.
		st := c.call(t, Message{Op: "status", ID: id})
		if !st.OK || st.Shard != resp.Shard {
			t.Fatalf("status %s from shard %d, submitted to %d: %+v", id, st.Shard, resp.Shard, st)
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 submits all hashed to one shard: %v", used)
	}
	// An id-less submit gets a router-generated id (routing needs the key
	// before any shard has seen the job).
	anon := c.call(t, Message{Op: "submit", Statement: "q6 ACC MIN 55% WITHIN 900 SECONDS"})
	if !anon.OK || anon.ID == "" {
		t.Fatalf("id-less submit: %+v", anon)
	}
	ids = append(ids, anon.ID)

	stats := c.call(t, Message{Op: "stats"})
	if !stats.OK || stats.Jobs != len(ids) {
		t.Fatalf("aggregate stats tracked %d jobs, want %d: %+v", stats.Jobs, len(ids), stats)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(stats.Report, fmt.Sprintf("=== shard %d ===", i)) {
			t.Fatalf("stats report missing shard %d section:\n%s", i, stats.Report)
		}
	}
	met := c.call(t, Message{Op: "metrics"})
	if !met.OK {
		t.Fatalf("metrics: %+v", met)
	}
	for _, want := range []string{
		`rotary_router_requests_total{op="submit"}`,
		`rotary_router_forwards_total`,
		`shard="0"`, // per-shard registries merge under an injected label
	} {
		if !strings.Contains(met.Report, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, met.Report)
		}
	}

	if resp := c.call(t, Message{Op: "advance", Seconds: 2000}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	for _, id := range ids {
		resp := c.call(t, Message{Op: "status", ID: id})
		if !resp.OK || !terminalStatus(resp.Status) {
			t.Fatalf("job %s not terminal: %+v", id, resp)
		}
	}
	dr := c.call(t, Message{Op: "drain"})
	if !dr.OK || dr.Jobs != len(ids) || dr.Terminal != len(ids) {
		t.Fatalf("drain: %+v", dr)
	}
}

// TestRouterShardUnavailableTyped is the graceful-degradation contract:
// a dead shard yields a typed shard-unavailable reply with a
// retry-after hint — promptly, never a hang — both before the
// supervisor has noticed the crash (transport failure) and after it has
// (probed-down). The surviving shard keeps serving throughout.
func TestRouterShardUnavailableTyped(t *testing.T) {
	t.Run("undetected-crash", func(t *testing.T) {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket:        filepath.Join(base, "r.sock"),
			Shards:        2,
			Dir:           filepath.Join(base, "state"),
			Pace:          0,
			ProbeInterval: time.Hour, // supervisor never notices: forwards hit the corpse
		})
		c := dial(t, r.cfg.Socket)
		victimID := idOwnedBy(t, r, 0)
		if resp := c.call(t, Message{Op: "submit", ID: victimID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 0 {
			t.Fatalf("submit: %+v", resp)
		}
		if err := r.KillShard(0); err != nil {
			t.Fatalf("KillShard: %v", err)
		}
		start := time.Now()
		resp := c.call(t, Message{Op: "status", ID: victimID})
		elapsed := time.Since(start)
		if resp.OK || resp.Code != CodeShardUnavailable || resp.Shard != 0 {
			t.Fatalf("status against dead shard: %+v", resp)
		}
		if resp.RetryAfterSecs <= 0 {
			t.Fatalf("no retry-after hint: %+v", resp)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("deadline-bounded forward took %v", elapsed)
		}
	})

	t.Run("probed-down", func(t *testing.T) {
		base := t.TempDir()
		r := startTestRouter(t, RouterConfig{
			Socket:         filepath.Join(base, "r.sock"),
			Shards:         2,
			Dir:            filepath.Join(base, "state"),
			Pace:           0,
			ProbeInterval:  10 * time.Millisecond,
			RestartBackoff: time.Hour, // detected fast, restarted never: stays Down
		})
		c := dial(t, r.cfg.Socket)
		deadID, liveID := idOwnedBy(t, r, 0), idOwnedBy(t, r, 1)
		if resp := c.call(t, Message{Op: "submit", ID: deadID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
			t.Fatalf("submit: %+v", resp)
		}
		if err := r.KillShard(0); err != nil {
			t.Fatalf("KillShard: %v", err)
		}
		waitShardState(t, r, 0, ShardDown, 10*time.Second)

		resp := c.call(t, Message{Op: "status", ID: deadID})
		if resp.OK || resp.Code != CodeShardUnavailable || resp.RetryAfterSecs <= 0 {
			t.Fatalf("status against down shard: %+v", resp)
		}
		// A submit hashing to the down shard is refused, not rerouted: its
		// durable state lives in that shard's journal.
		sub := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0) + "-new", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
		if sub.OK && sub.Shard == 0 {
			t.Fatalf("submit reached a down shard: %+v", sub)
		}
		// Fault isolation: the surviving shard serves undisturbed.
		if resp := c.call(t, Message{Op: "submit", ID: liveID, Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 1 {
			t.Fatalf("submit to surviving shard: %+v", resp)
		}
		h := c.call(t, Message{Op: "health"})
		if !h.OK || !strings.Contains(h.Status, "degraded") {
			t.Fatalf("health with a down shard: %+v", h)
		}
		sh := c.call(t, Message{Op: "shards"})
		if !sh.OK || sh.Shards[0].State != "down" || sh.Shards[1].State != "running" {
			t.Fatalf("shards report: %+v", sh)
		}
	})
}

// TestRouterStaleShardSockets: SIGKILL leaves socket files behind for
// the router and every shard; the next start must reclaim each of them
// — one leftover shard socket never aborts the whole daemon's startup.
func TestRouterStaleShardSockets(t *testing.T) {
	base := t.TempDir()
	socket := filepath.Join(base, "r.sock")
	for _, path := range []string{socket, socket + ".shard0", socket + ".shard1"} {
		ln, err := net.Listen("unix", path)
		if err != nil {
			t.Fatalf("plant socket %s: %v", path, err)
		}
		ln.(*net.UnixListener).SetUnlinkOnClose(false)
		ln.Close()
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("stale socket not on disk: %v", err)
		}
	}
	r := startTestRouter(t, RouterConfig{
		Socket: socket,
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	for i := 0; i < 2; i++ {
		if st, _ := r.ShardState(i); st != ShardRunning {
			t.Fatalf("shard %d is %v after stale-socket startup", i, st)
		}
	}
	c := dial(t, socket)
	if resp := c.call(t, Message{Op: "health"}); !resp.OK || resp.Status != "healthy" {
		t.Fatalf("health on reclaimed sockets: %+v", resp)
	}
}

// TestRouterStartupShardFailureIsolated: a shard whose stack fails to
// build at boot is marked down — the daemon still comes up and serves
// the healthy shards.
func TestRouterStartupShardFailureIsolated(t *testing.T) {
	base := t.TempDir()
	build := func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
		if index == 0 {
			return nil, nil, nil, errors.New("injected: shard 0 build failure")
		}
		return testShardBuilder(index, store)
	}
	r := startTestRouter(t, RouterConfig{
		Socket:         filepath.Join(base, "r.sock"),
		Shards:         2,
		Dir:            filepath.Join(base, "state"),
		Build:          build,
		Pace:           0,
		RestartBackoff: time.Hour, // one failed boot, no retry churn during the test
	})
	c := dial(t, r.cfg.Socket)
	h := c.call(t, Message{Op: "health"})
	if !h.OK || !strings.Contains(h.Status, "degraded") {
		t.Fatalf("health: %+v", h)
	}
	if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 1), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK || resp.Shard != 1 {
		t.Fatalf("submit to healthy shard: %+v", resp)
	}
	dead := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if dead.OK || dead.Code != CodeShardUnavailable {
		t.Fatalf("submit to failed shard: %+v", dead)
	}
	sh := c.call(t, Message{Op: "shards"})
	if !sh.OK || sh.Shards[0].State == "running" || sh.Shards[0].Error == "" {
		t.Fatalf("shards report hides the boot failure: %+v", sh)
	}
}

// TestRouterRetire: retiring a shard migrates its tracked jobs to their
// ring successors, drains it, and reroutes future traffic around it —
// permanently and idempotently.
func TestRouterRetire(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)
	onZero, onOne := idOwnedBy(t, r, 0), idOwnedBy(t, r, 1)
	for _, id := range []string{onZero, onOne} {
		if resp := c.call(t, Message{Op: "submit", ID: id, Statement: "q1 ACC MIN 99% WITHIN 900 SECONDS"}); !resp.OK {
			t.Fatalf("submit %s: %+v", id, resp)
		}
	}
	if resp := c.call(t, Message{Op: "advance", Seconds: 20}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	ret := c.call(t, Message{Op: "retire", Shard: 0})
	if !ret.OK || ret.Status != "retired" || ret.Jobs != 1 {
		t.Fatalf("retire: %+v", ret)
	}
	if st, _ := r.ShardState(0); st != ShardRetired {
		t.Fatalf("shard 0 is %v after retire", st)
	}
	// The migrated job answers from its new home.
	st := c.call(t, Message{Op: "status", ID: onZero})
	if !st.OK || st.Shard != 1 {
		t.Fatalf("status %s after retire: %+v", onZero, st)
	}
	// New work that would hash to the retired shard reroutes.
	reroute := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0) + "-late", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"})
	if !reroute.OK || reroute.Shard != 1 {
		t.Fatalf("post-retire submit: %+v", reroute)
	}
	// Retire is idempotent.
	again := c.call(t, Message{Op: "retire", Shard: 0})
	if !again.OK || again.Code != CodeShardRetired {
		t.Fatalf("second retire: %+v", again)
	}
	if resp := c.call(t, Message{Op: "advance", Seconds: 3000}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	for _, id := range []string{onZero, onOne, reroute.ID} {
		resp := c.call(t, Message{Op: "status", ID: id})
		if !resp.OK || !terminalStatus(resp.Status) {
			t.Fatalf("job %s not terminal after retire: %+v", id, resp)
		}
	}
	if dr := c.call(t, Message{Op: "drain"}); !dr.OK {
		t.Fatalf("drain: %+v", dr)
	}
}

// TestRouterDrainOutlastsRequestTimeout: draining a shard with queued
// work takes as long as fast-forwarding that work does, which has
// nothing to do with the router→shard RequestTimeout. The drain used to
// be a "drain" RPC through the deadline-bounded client: past the
// timeout the forward was retried (a second drain), the router reported
// failure, and jobs were left live in the shard's journal. Each shard's
// drain here runs ~5× the timeout.
func TestRouterDrainOutlastsRequestTimeout(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket:         filepath.Join(base, "r.sock"),
		Shards:         2,
		Dir:            filepath.Join(base, "state"),
		Pace:           0,
		RequestTimeout: 100 * time.Millisecond,
	})
	c := dial(t, r.cfg.Socket)
	const jobs = 40
	perShard := map[int]int{}
	for i := 0; i < jobs; i++ {
		resp := c.call(t, Message{Op: "submit", ID: fmt.Sprintf("d-%d", i), Statement: "q5 ACC MIN 99% WITHIN 3600 SECONDS"})
		if !resp.OK {
			t.Fatalf("submit %d: %+v", i, resp)
		}
		perShard[resp.Shard]++
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("premise: queued jobs on every shard, got %v", perShard)
	}
	dr := c.call(t, Message{Op: "drain"})
	if !dr.OK || dr.Jobs != jobs || dr.Terminal != jobs {
		t.Fatalf("router drain with shard drains past RequestTimeout: %+v", dr)
	}
	for i := 0; i < 2; i++ {
		rec, err := ReplayJournal(filepath.Join(base, "state", fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatalf("ReplayJournal shard %d: %v", i, err)
		}
		if live := rec.NonTerminal(); len(live) != 0 {
			t.Fatalf("shard %d journal still holds %d live jobs after the drain", i, len(live))
		}
	}
}

// TestRouterResponseCodes pins the machine-readable Code on each
// router-level error class, so clients can branch without
// string-matching Error.
func TestRouterResponseCodes(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 2,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)
	if resp := c.call(t, Message{Op: "submit", ID: "vc", Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
		t.Fatalf("submit: %+v", resp)
	}
	cases := []struct {
		name string
		m    Message
		code string
		ok   bool
	}{
		{"unknown op", Message{Op: "bogus"}, CodeUnknownOp, false},
		{"status without id", Message{Op: "status"}, CodeBadRequest, false},
		{"negative advance", Message{Op: "advance", Seconds: -1}, CodeBadRequest, false},
		{"migrate without id", Message{Op: "migrate", Shard: 1}, CodeBadRequest, false},
		{"migrate unknown job", Message{Op: "migrate", ID: "nope", Shard: 1}, CodeUnknownJob, false},
		{"migrate bad shard", Message{Op: "migrate", ID: "vc", Shard: 7}, CodeBadShard, false},
		{"migrate negative shard", Message{Op: "migrate", ID: "vc", Shard: -2}, CodeBadShard, false},
		{"retire bad shard", Message{Op: "retire", Shard: 99}, CodeBadShard, false},
		{"trace-tail bad shard", Message{Op: "trace-tail", Shard: 31}, CodeBadShard, false},
	}
	for _, tc := range cases {
		resp := c.call(t, tc.m)
		if resp.OK != tc.ok || resp.Code != tc.code {
			t.Errorf("%s: got ok=%v code=%q, want ok=%v code=%q (%+v)", tc.name, resp.OK, resp.Code, tc.ok, tc.code, resp)
		}
	}
	// Migrate to the job's own shard is an explicit no-op, not an error.
	own := c.call(t, Message{Op: "status", ID: "vc"})
	noop := c.call(t, Message{Op: "migrate", ID: "vc", Shard: own.Shard})
	if !noop.OK || noop.Code != CodeMigrateNoop {
		t.Errorf("same-shard migrate: %+v", noop)
	}
}

// TestRouterOversizedRequestLine mirrors the single server's oversized
// handling on the router socket: a typed too-large reply, then the
// connection closes.
func TestRouterOversizedRequestLine(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 1,
		Dir:    filepath.Join(base, "state"),
		Pace:   0,
	})
	conn, err := net.Dial("unix", r.cfg.Socket)
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
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("connection still open after oversized request")
	}
}
