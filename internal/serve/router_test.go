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

	sweep(t, c, ids, 2000, 1)
	if dr := c.drain(t); dr.Jobs != len(ids) {
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
	sweep(t, c, []string{onZero, onOne, reroute.ID}, 3000, 1)
	c.drain(t)
}

// TestRouterOpsOutlastBusyShard: a router op that keeps every shard busy
// for hundreds of milliseconds (small batches make many epochs per job)
// gets each shard's own reply, however long the shard takes. Router→shard
// calls used to be RPCs through a client with a request timeout: past it
// the op was re-sent — a second drain, an advance applied twice — or
// reported shard-unavailable although the shard had done the work, so
// the catch-up horizon restarted shards replay to no longer matched the
// fleet's clock.
func TestRouterOpsOutlastBusyShard(t *testing.T) {
	const jobs = 40
	cases := []struct {
		name  string
		op    Message
		check func(t *testing.T, r *Router, c *client, resp Response)
	}{
		{"drain", Message{Op: "drain"}, func(t *testing.T, r *Router, c *client, dr Response) {
			if !dr.OK || dr.Jobs != jobs || dr.Terminal != jobs {
				t.Fatalf("router drain over busy shards: %+v", dr)
			}
			for i := 0; i < 2; i++ {
				rec, err := ReplayJournal(filepath.Join(r.cfg.Dir, fmt.Sprintf("shard-%d", i)))
				if err != nil {
					t.Fatalf("ReplayJournal shard %d: %v", i, err)
				}
				if live := rec.NonTerminal(); len(live) != 0 {
					t.Fatalf("shard %d journal still holds %d live jobs after the drain", i, len(live))
				}
			}
		}},
		{"advance", Message{Op: "advance", Seconds: 20000}, func(t *testing.T, r *Router, c *client, adv Response) {
			if !adv.OK || adv.Code != "" || adv.VirtualNow != 20000 {
				t.Fatalf("router advance over busy shards: %+v", adv)
			}
			if got := r.virtualTargetGet(); got != 20000 {
				t.Fatalf("catch-up horizon %v after advancing every shard to 20000", got)
			}
			sh := c.call(t, Message{Op: "shards"})
			for _, info := range sh.Shards {
				if info.VirtualNow != 20000 || info.Terminal != info.Jobs {
					t.Fatalf("shard %d after the advance: %+v", info.Index, info)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			r := startTestRouter(t, RouterConfig{
				Socket: filepath.Join(base, "r.sock"),
				Shards: 2,
				Dir:    filepath.Join(base, "state"),
				Pace:   0,
			})
			c := dial(t, r.cfg.Socket)
			perShard := map[int]int{}
			for i := 0; i < jobs; i++ {
				resp := c.call(t, Message{Op: "submit", ID: fmt.Sprintf("d-%d", i), Statement: "q18 ACC MIN 99% WITHIN 3600 SECONDS", BatchRows: 20})
				if !resp.OK {
					t.Fatalf("submit %d: %+v", i, resp)
				}
				perShard[resp.Shard]++
			}
			if perShard[0] == 0 || perShard[1] == 0 {
				t.Fatalf("premise: queued jobs on every shard, got %v", perShard)
			}
			start := time.Now()
			resp := c.call(t, tc.op)
			t.Logf("%s over %d queued jobs took %v", tc.name, jobs, time.Since(start))
			tc.check(t, r, c, resp)
		})
	}
}

// TestRouterShardServeExitsEarly: a shard whose Serve returns before its
// driver starts — here a regular file holds its socket path, so the bind
// fails — reads as down and never blocks anyone. The router still boots,
// a request for that shard's job gets a typed shard-unavailable reply,
// and a forward onto such a server answers the same way.
func TestRouterShardServeExitsEarly(t *testing.T) {
	base := t.TempDir()
	socket := filepath.Join(base, "r.sock")
	if err := os.WriteFile(socket+".shard0", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{
		Socket:         socket,
		Shards:         2,
		Dir:            filepath.Join(base, "state"),
		Build:          testShardBuilder,
		Obs:            obs.NewRegistry(),
		ProbeInterval:  20 * time.Millisecond,
		RestartBackoff: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		r.Serve()
	}()
	select {
	case <-r.Ready():
	case <-time.After(20 * time.Second):
		t.Fatal("router boot blocked on a shard whose Serve returned early")
	}
	t.Cleanup(func() {
		r.Close()
		<-served
	})
	if st, _ := r.ShardState(0); st != ShardDown {
		t.Fatalf("shard 0 is %v after its bind failed", st)
	}
	c := dial(t, socket)
	stmt := "q1 ACC MIN 60% WITHIN 900 SECONDS"
	if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 0), Statement: stmt}); resp.OK || resp.Code != CodeShardUnavailable || resp.RetryAfterSecs <= 0 {
		t.Fatalf("submit to the shard that never served: %+v", resp)
	}
	if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, 1), Statement: stmt}); !resp.OK || resp.Shard != 1 {
		t.Fatalf("submit to the healthy shard: %+v", resp)
	}

	exec, cat, reg, err := testShardBuilder(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Socket: socket + ".shard0", Obs: reg}, exec, cat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Serve(); err == nil {
		t.Fatal("premise: Serve bound a socket over a regular file")
	}
	got := make(chan Response, 1)
	go func() {
		got <- r.forward(&shardHandle{index: 0, state: ShardRunning, srv: srv}, Message{Op: "status", ID: "x"})
	}()
	select {
	case resp := <-got:
		if resp.OK || resp.Code != CodeShardUnavailable || resp.RetryAfterSecs <= 0 {
			t.Fatalf("forward onto a server that never started its driver: %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forward onto a server that never started its driver blocked")
	}
}

// TestRouterMetricsExposition: the router's metrics op is one valid
// Prometheus exposition over its own registry and every shard's — each
// family has exactly one # TYPE line, its samples are contiguous, and
// every shard sample carries shard="i" as its first label. Rendering each
// shard separately and appending the texts repeated every shared family's
// header once per shard and split its samples across the scrape.
func TestRouterMetricsExposition(t *testing.T) {
	base := t.TempDir()
	r := startTestRouter(t, RouterConfig{
		Socket: filepath.Join(base, "r.sock"),
		Shards: 3,
		Dir:    filepath.Join(base, "state"),
		Obs:    obs.NewRegistry(),
		Pace:   0,
	})
	c := dial(t, r.cfg.Socket)
	for i := 0; i < 3; i++ {
		if resp := c.call(t, Message{Op: "submit", ID: idOwnedBy(t, r, i), Statement: "q1 ACC MIN 60% WITHIN 900 SECONDS"}); !resp.OK {
			t.Fatalf("submit: %+v", resp)
		}
	}
	if resp := c.call(t, Message{Op: "advance", Seconds: 100}); !resp.OK {
		t.Fatalf("advance: %+v", resp)
	}
	for _, wall := range []bool{false, true} {
		met := c.call(t, Message{Op: "metrics", Wall: wall})
		if !met.OK {
			t.Fatalf("metrics (wall %v): %+v", wall, met)
		}
		checkExposition(t, met.Report)
	}
}

// checkExposition asserts the merged-scrape contract on one rendering.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	kinds := map[string]string{}
	done := map[string]bool{} // families whose sample run has ended
	current := ""
	shards := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if _, dup := kinds[f[2]]; dup {
				t.Fatalf("family %s has a second TYPE line", f[2])
			}
			kinds[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _ := strings.Cut(strings.Fields(line)[0], "{")
		fam := name
		if _, ok := kinds[fam]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); kinds[base] == "histogram" {
					fam = base
				}
			}
		}
		if _, ok := kinds[fam]; !ok {
			t.Fatalf("sample %q precedes any TYPE line for its family", line)
		}
		if fam != current {
			if done[fam] {
				t.Fatalf("family %s's samples are split across the scrape (at %q)", fam, line)
			}
			done[current] = true
			current = fam
		}
		if strings.HasPrefix(fam, "rotary_router_") {
			continue // the router's own registry
		}
		shard, ok := strings.CutPrefix(labels, `shard="`)
		if !ok {
			t.Fatalf("shard sample without a leading shard label: %q", line)
		}
		shards[shard[:strings.IndexByte(shard, '"')]] = true
	}
	for _, want := range []string{"0", "1", "2"} {
		if !shards[want] {
			t.Fatalf("no samples from shard %s", want)
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
