// The chaos kit: one test daemon every serve suite boots, kills and
// restarts, and one scenario driver that plays a timed plan of submits
// and kills against it and sweeps the terminal statuses. The checks the
// suites make on what they observe live in internal/invariants.
package serve

import (
	"net"
	"path/filepath"
	"sync"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/invariants"
	"rotary/internal/obs"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// testDataset is the SF 0.005 seed-1 dataset every test stack serves. It
// is read-only, so one copy per test binary backs every incarnation's
// catalog.
var testDataset = sync.OnceValue(func() *tpch.Dataset { return tpch.Generate(0.005, 1) })

// daemon is a serve test stack that can be killed and restarted. Its
// options are read at every boot; the incarnation fields always hold the
// current incarnation's parts (registry and admission ledger are
// incarnation-local by design: the journal is the durable record).
type daemon struct {
	durable      bool              // journal + checkpoint store under dir, through OpenDurableIO
	dio          diskio.IO         // disk layer under the durable pair; nil is the real disk
	tracer       *core.Tracer      // attached to every incarnation's executor
	admit        *admission.Config // admission controller; tenants in it add weighted fair share
	cfg          Config            // server tweaks (the zero Pace keeps runs deterministic); Socket, Obs, Journal filled in
	compactBytes int64             // journal compaction floor; 0 keeps the default
	// afterRequest, when set, runs on each incarnation's driver goroutine
	// after every request it handles, and once when it boots.
	afterRequest func(*Server)

	dir, socket string

	srv  *Server
	exec *core.AQPExecutor
	cat  *tpch.Catalog
	reg  *obs.Registry
	ctrl *admission.Controller
	jl   *Journal
	wg   *sync.WaitGroup // nil until the incarnation serves
}

// newDaemon places the daemon's state dir and socket in a fresh temp dir
// and stops whatever incarnation is left when the test ends.
func newDaemon(t testing.TB, d daemon) *daemon {
	t.Helper()
	base := t.TempDir()
	d.dir, d.socket = filepath.Join(base, "state"), filepath.Join(base, "rotary.sock")
	t.Cleanup(func() {
		switch {
		case d.wg != nil:
			d.kill()
		case d.jl != nil:
			d.jl.Close()
		}
	})
	return &d
}

// stack builds one incarnation's engine: a fresh catalog over the shared
// dataset, a private registry and a round-robin executor.
func (d *daemon) stack(store *core.CheckpointStore) {
	d.reg = obs.NewRegistry()
	d.cat = tpch.NewCatalog(testDataset(), 1)
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(d.cat))
	cfg.Obs, cfg.Store, cfg.Tracer = d.reg, store, d.tracer
	var sched core.AQPScheduler = baselines.RoundRobinAQP{}
	if d.admit != nil {
		a := *d.admit
		a.Obs = d.reg
		d.ctrl = admission.NewController(a)
		cfg.Admission = d.ctrl
		if len(a.Tenants.Tenants) > 0 {
			sched = core.NewFairShareAQP(sched, a.Tenants.Weights())
		}
	}
	d.exec = core.NewAQPExecutor(cfg, sched, nil)
}

// boot builds one incarnation without serving it: tests that call
// handle or feed the ingress ring drive it by hand.
func (d *daemon) boot(t testing.TB) {
	t.Helper()
	var store *core.CheckpointStore
	d.jl, d.wg = nil, nil
	if d.durable {
		jl, st, err := OpenDurableIO(d.dir, d.dio)
		if err != nil {
			t.Fatalf("OpenDurableIO: %v", err)
		}
		if d.compactBytes > 0 {
			jl.SetCompactBytes(d.compactBytes)
		}
		d.jl, store = jl, st
	}
	d.stack(store)
	if store != nil {
		store.SetObs(d.reg)
	}
	cfg := d.cfg
	cfg.Socket, cfg.Obs, cfg.Journal = d.socket, d.reg, d.jl
	srv, err := New(cfg, d.exec, d.cat)
	if err != nil {
		if d.jl != nil {
			d.jl.Close()
		}
		t.Fatalf("New: %v", err)
	}
	d.srv = srv
	if d.afterRequest != nil {
		srv.requestHook = func() { d.afterRequest(srv) }
		d.afterRequest(srv)
	}
}

// start boots one incarnation and serves it.
func (d *daemon) start(t testing.TB) {
	t.Helper()
	d.boot(t)
	d.wg = serveAsync(t, d.srv)
}

// kill SIGKILLs the incarnation: no drain, no flush.
func (d *daemon) kill() {
	d.srv.Kill()
	d.wg.Wait()
}

// restart kills the incarnation and boots the next one over the same
// state, returning a client connected to it.
func (d *daemon) restart(t testing.TB) *client {
	t.Helper()
	d.kill()
	d.start(t)
	return dial(t, d.socket)
}

// serveAsync runs srv.Serve on its own goroutine and returns once the
// socket accepts connections.
func serveAsync(t testing.TB, srv *Server) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	for {
		conn, err := net.Dial("unix", srv.cfg.Socket)
		if err == nil {
			conn.Close()
			return &wg
		}
	}
}

// testShardBuilder is the router suites' shard stack: the daemon's
// engine with a trace ring big enough to compare byte for byte across
// runs.
func testShardBuilder(_ int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
	d := &daemon{tracer: core.NewTracer(2048)}
	d.stack(store)
	return d.exec, d.cat, d.reg, nil
}

// drain drains the daemon behind c and checks that every job it held
// ended terminal.
func (c *client) drain(t testing.TB) Response {
	t.Helper()
	r := c.call(t, Message{Op: "drain"})
	if !r.OK {
		t.Fatalf("drain: %+v", r)
	}
	if err := invariants.Drained(r.Jobs, r.Terminal); err != nil {
		t.Fatal(err)
	}
	return r
}

// chaosEvent is one step of a timed chaos plan: at virtual time at,
// submit a job or kill the daemon.
type chaosEvent struct {
	at        float64
	kind      string // "submit" or "kill"
	id        string
	tenant    string
	stmt      string
	untracked bool // a flood submit: it may be refused and is not swept
}

// drive plays a time-ordered plan over c. It advances the virtual clock
// to each event, then submits the job under the req_id "req-<id>" or
// hands the kill to the caller, who restarts the daemon (or a shard) and
// returns the client to go on with. It returns that client and the
// tracked job ids in plan order; a tracked submit must be acked.
func drive(t *testing.T, c *client, plan []chaosEvent, kill func(now float64) *client) (*client, []string) {
	t.Helper()
	now := 0.0
	var tracked []string
	for _, ev := range plan {
		if ev.at > now {
			r := c.call(t, Message{Op: "advance", Seconds: ev.at - now})
			if !r.OK {
				t.Fatalf("advance to %.1f: %+v", ev.at, r)
			}
			now = r.VirtualNow
		}
		if ev.kind == "kill" {
			c = kill(now)
			continue
		}
		r := c.call(t, Message{Op: "submit", ID: ev.id, ReqID: "req-" + ev.id, Tenant: ev.tenant, Statement: ev.stmt})
		if ev.untracked {
			continue
		}
		if !r.OK {
			t.Fatalf("submit %s: %+v", ev.id, r)
		}
		tracked = append(tracked, ev.id)
	}
	return c, tracked
}

// sweep advances the clock step virtual seconds at a time, at most steps
// times, reading each tracked job's status after every step until all
// are terminal. Every job must answer and end terminal. It returns each
// job's status and the step at which it was first seen terminal.
func sweep(t *testing.T, c *client, ids []string, step float64, steps int) (map[string]string, map[string]int) {
	t.Helper()
	status, doneAt := make(map[string]string, len(ids)), make(map[string]int, len(ids))
	for s := 0; s < steps && len(doneAt) < len(ids); s++ {
		if r := c.call(t, Message{Op: "advance", Seconds: step}); !r.OK {
			t.Fatalf("advance step %d: %+v", s, r)
		}
		for _, id := range ids {
			if _, done := doneAt[id]; done {
				continue
			}
			r := c.call(t, Message{Op: "status", ID: id})
			if !r.OK {
				t.Fatalf("job %s silently dropped: %+v", id, r)
			}
			if status[id] = r.Status; terminalStatus(r.Status) {
				doneAt[id] = s
			}
		}
	}
	if err := invariants.AllTerminal(status); err != nil {
		t.Fatal(err)
	}
	return status, doneAt
}

// journalIDs lists the job ids the incarnation's journal replayed at boot.
func (d *daemon) journalIDs() []string {
	var ids []string
	for _, j := range d.jl.Recovered().Jobs {
		ids = append(ids, j.ID)
	}
	return ids
}
