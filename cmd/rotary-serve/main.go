// Command rotary-serve runs the live serving mode: a long-lived arbiter
// over a Unix socket, admitting completion-criteria statements under an
// admission controller and pacing the virtual clock against wall-clock
// time. SIGTERM (or a client {"op":"drain"}) drains gracefully: new work
// is refused, in-flight jobs run to a terminal status, and the final
// overload report is printed before exit.
//
// Usage:
//
//	rotary-serve -socket /tmp/rotary.sock [-pace 60] [-queue-bound 8] [-admission reject|shed|degrade]
//	rotary-serve -socket /tmp/rotary.sock -journal /var/lib/rotary     # durable: survives kill -9
//	rotary-serve -socket /tmp/rotary.sock -journal /var/lib/rotary -shards 4   # sharded multi-arbiter
//	rotary-serve -socket /tmp/rotary.sock -listen tcp:0.0.0.0:7070     # extra TCP listener
//	rotary-serve -connect tcp:127.0.0.1:7070 -codec binary             # resilient client REPL
//
// Protocol: one JSON object per line, e.g.
//
//	{"op":"submit","id":"j1","req_id":"r1","statement":"q5 ACC MIN 80% WITHIN 900 SECONDS"}
//	{"op":"status","id":"j1"}
//	{"op":"stats"}
//	{"op":"metrics"}            — Prometheus text exposition of the obs registry
//	{"op":"trace-tail","n":20}  — last n trace-ring events plus the overwrite count
//	{"op":"health"}             — liveness probe: job totals, virtual clock, server epoch
//	{"op":"resume"}             — restart-detection handshake (server epoch + recovered count)
//	{"op":"drain"}
//
// Durability: -journal makes the arbiter crash-recoverable — every state
// transition is fsynced to a write-ahead journal before the client sees
// the reply, checkpoints persist under <dir>/ckpt, and a restart with the
// same -journal replays the journal, re-registers every non-terminal job,
// and resumes the virtual clock. Client mode (-connect) reads one JSON
// request per stdin line and reconnects with backoff across restarts.
//
// Heavy traffic: -listen adds TCP (or extra Unix) listeners alongside
// the primary socket; each connection negotiates its wire codec — JSON
// lines or the length-prefixed binary frame — by its first bytes.
// -ingress-depth bounds the ring between connection handlers and the
// driver (a full ring refuses with a typed "overloaded" reply carrying
// retry_after_secs); -ingress-batch is how many queued requests one
// driver wakeup drains, which is also the journal group-commit window:
// every record the batch stages is made durable by ONE fsync before any
// of its replies are released.
//
// Sharding: -shards N (with -journal) runs N independent durable arbiter
// shards — each with its own engine, write-ahead journal under
// <dir>/shard-<i>, and checkpoint namespace — behind a router on the
// public socket. Submits route by consistent hash on the job id; a shard
// supervisor health-probes every shard and restarts crashed ones from
// their journals with capped exponential backoff, while requests for a
// down shard get typed shard-unavailable replies instead of hangs.
// Router-only ops: {"op":"shards"} for the supervision report,
// {"op":"migrate","id":"j1","shard":2} for checkpoint-carried live
// migration, {"op":"retire","shard":0} to migrate a shard's jobs off and
// reroute around it.
//
// Observability: -http starts a debug listener serving /metrics
// (Prometheus text) and net/http/pprof; -trace-out streams every trace
// event as JSONL while -trace-ring bounds in-memory retention.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rotary/internal/admission"
	"rotary/internal/cliutil"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/estimate"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rotary-serve: ")
	var (
		socket     = flag.String("socket", "/tmp/rotary.sock", "Unix socket path to listen on")
		listen     = flag.String("listen", "", `extra listeners served alongside -socket, comma-separated "tcp:host:port" / "unix:/path" specs`)
		ingDepth   = flag.Int("ingress-depth", 0, "bound on the request ring between connection handlers and the driver; a full ring refuses with a typed overloaded reply (0 = default 1024)")
		ingBatch   = flag.Int("ingress-batch", 0, "requests the driver drains per wakeup — also the journal group-commit window (0 = default 64; 1 = fsync per request)")
		journalDir = flag.String("journal", "", "durability directory: write-ahead journal + persistent checkpoints; restart with the same directory to recover (empty = process-scoped)")
		shards     = flag.Int("shards", 1, "shard the arbiter: run this many supervised durable shard workers behind a router (requires -journal; 1 = single unsharded server)")
		connect    = flag.String("connect", "", "client mode: connect to this endpoint (socket path or tcp:host:port spec) and relay JSON requests from stdin (reconnects with backoff)")
		codec      = flag.String("codec", "", "client mode wire codec: json or binary (empty = json)")
		sf         = flag.Float64("sf", 0.02, "TPC-H scale factor")
		seed       = flag.Uint64("seed", 1, "random seed")
		policy     = flag.String("policy", "rotary", "scheduling policy: "+strings.Join(cliutil.AQPPolicies.Names(), ", "))
		pace       = flag.Float64("pace", 60, "virtual seconds per wall-clock second (0 freezes the clock between requests)")
		queueBound = flag.Int("queue-bound", 8, "admission bound on waiting+running jobs (0 = unbounded)")
		backpress  = flag.String("admission", "reject", "backpressure policy at the bound: reject, shed, degrade")
		tenants    = flag.String("tenants", "", `per-tenant quotas and fair-share weights, e.g. "alpha:weight=2,rate=0.5,burst=4,max-active=8;default:rate=1,burst=4" (empty = single-tenant)`)
		slack      = flag.Float64("slack-factor", 1, "deadline feasibility slack: refuse when slack × estimated completion exceeds the deadline (0 disables)")
		wdSlack    = flag.Float64("watchdog-slack", 4, "epoch watchdog slack over the predicted epoch cost (0 disables)")
		aging      = flag.Int("aging", 8, "starvation guard: force a minimal grant after this many consecutive skips (0 disables)")
		httpAddr   = flag.String("http", "", "debug HTTP listener address serving /metrics and pprof (e.g. 127.0.0.1:6060; empty disables)")
		traceRing  = flag.Int("trace-ring", 4096, "bound on in-memory trace events; older events are overwritten (0 = unbounded)")
		traceOut   = flag.String("trace-out", "", "stream every trace event as JSON lines to this file")
		healProbe  = flag.Float64("heal-probe", 0, "wall seconds between heal attempts against a degraded journal; degraded refusals carry it as retry_after_secs (0 = default 0.5)")
		healBudget = flag.Int("heal-budget", 0, "consecutive failed heal attempts before the health op reports journal-failed — the supervised-restart signal (0 = default 8)")
		faultRate  = flag.Float64("fault-rate", 0, "TESTING: inject seeded disk faults (ENOSPC short writes, EIO fsyncs, 4-op bursts) under the journal at this per-op probability — a live demo of degraded-mode healing (0 disables)")
	)
	flag.Parse()
	if *connect != "" {
		if err := runClient(*connect, *codec); err != nil {
			log.Fatal(err)
		}
		return
	}
	var listeners []string
	for _, spec := range strings.Split(*listen, ",") {
		if spec = strings.TrimSpace(spec); spec != "" {
			listeners = append(listeners, spec)
		}
	}
	// conflict refuses a flag combination that would otherwise fail late
	// or be silently ignored.
	conflict := func(bad bool, msg string) error {
		if bad {
			return errors.New(msg)
		}
		return nil
	}
	if err := cliutil.ValidateAll(
		cliutil.OneOf("-policy", *policy, cliutil.AQPPolicies.Names()...),
		cliutil.Positive("-sf", *sf),
		cliutil.NonNegative("-pace", *pace),
		cliutil.MinInt("-shards", *shards, 1),
		cliutil.MinInt("-ingress-depth", *ingDepth, 0),
		cliutil.MinInt("-ingress-batch", *ingBatch, 0),
		cliutil.MinInt("-queue-bound", *queueBound, 0),
		cliutil.NonNegative("-slack-factor", *slack),
		cliutil.NonNegative("-watchdog-slack", *wdSlack),
		cliutil.MinInt("-aging", *aging, 0),
		cliutil.MinInt("-trace-ring", *traceRing, 0),
		cliutil.NonNegative("-heal-probe", *healProbe),
		cliutil.MinInt("-heal-budget", *healBudget, 0),
		cliutil.NonNegative("-fault-rate", *faultRate),
		conflict(*shards > 1 && *journalDir == "", "-shards > 1 requires -journal: shards are durable workers restarted from their journals"),
		conflict(*shards > 1 && *traceOut != "", "-trace-out is not supported with -shards > 1: each shard keeps its own trace ring"),
		conflict(*faultRate > 0 && *journalDir == "", "-fault-rate requires -journal: faults are injected under the journal"),
	); err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}
	admitPolicy, err := admission.ParsePolicy(*backpress)
	if err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}
	tenantTable, err := admission.ParseTenantSpec(*tenants)
	if err != nil {
		log.Println(err)
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("generating TPC-H at SF=%g (seed %d)…\n", *sf, *seed)
	stack := stackOpts{
		ds:         tpch.Generate(*sf, *seed),
		policy:     *policy,
		admit:      admitPolicy,
		queueBound: *queueBound,
		slack:      *slack,
		wdSlack:    *wdSlack,
		aging:      *aging,
		tenants:    tenantTable,
	}

	if *shards > 1 {
		if err := runSharded(shardedOpts{
			stackOpts:  stack,
			socket:     *socket,
			listeners:  listeners,
			ingDepth:   *ingDepth,
			ingBatch:   *ingBatch,
			journalDir: *journalDir,
			shards:     *shards,
			seed:       *seed,
			traceRing:  *traceRing,
			pace:       *pace,
			httpAddr:   *httpAddr,
			healProbe:  *healProbe,
			healBudget: *healBudget,
			faultRate:  *faultRate,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	tracer := core.NewTracer(*traceRing)
	var sink *obs.JSONLSink
	if *traceOut != "" {
		if sink, err = obs.OpenJSONLSink(*traceOut); err != nil {
			log.Fatal(err)
		}
		tracer.SetSink(sink)
	}

	var (
		jl    *serve.Journal
		store *core.CheckpointStore
	)
	if *journalDir != "" {
		// Durable mode: journal plus a persistent checkpoint store whose
		// sweep retains journal-referenced checkpoints, so recovered jobs
		// reattach across restarts instead of restarting from scratch.
		if jl, store, err = serve.OpenDurableIO(*journalDir, faultIO(*faultRate, *seed, 0)); err != nil {
			log.Fatal(err)
		}
		defer jl.Close()
		rec := jl.Recovered()
		if n := len(rec.NonTerminal()); n > 0 || rec.DroppedBytes > 0 {
			fmt.Printf("journal: server epoch %d, recovering %d live jobs at virtual %.0fs (%d corrupt tail bytes dropped)\n",
				rec.ServerEpoch, n, rec.VirtualNow, rec.DroppedBytes)
		}
	} else if *wdSlack > 0 {
		dir, err := os.MkdirTemp("", "rotary-serve-ckpt-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if store, err = core.NewCheckpointStore(dir, 8); err != nil {
			log.Fatal(err)
		}
	}
	exec, cat, sched, err := buildStack(stack, *seed, nil, tracer, store)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Socket:          *socket,
		Listeners:       listeners,
		IngressDepth:    *ingDepth,
		IngressBatch:    *ingBatch,
		Pace:            *pace,
		Journal:         jl,
		HealProbeSecs:   *healProbe,
		MaxHealFailures: *healBudget,
	}, exec, cat)
	if err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		dbg, err := obs.StartDebug(*httpAddr, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug HTTP on http://%s (/metrics, /debug/pprof)\n", dbg.Addr())
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigCh
		fmt.Printf("\n%v: draining…\n", sig)
		srv.Drain()
	}()

	fmt.Printf("serving %s on %s (pace %gx, queue bound %d, %s backpressure)\n",
		sched.Name(), *socket, *pace, *queueBound, admitPolicy)
	start := time.Now()
	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
	r := srv.Final()
	fmt.Printf("drained %d/%d jobs after %s (virtual now %.0fs)\n%s",
		r.Terminal, r.Jobs, time.Since(start).Round(time.Millisecond), r.VirtualNow, r.Report)
	if err := sink.Close(); err != nil {
		log.Fatalf("-trace-out: %v", err)
	}
	if !r.OK {
		log.Fatal(r.Error)
	}
}

// stackOpts is the part of the configuration every arbiter stack shares,
// single or sharded.
type stackOpts struct {
	ds         *tpch.Dataset
	policy     string
	admit      admission.Policy
	queueBound int
	slack      float64
	wdSlack    float64
	aging      int
	tenants    admission.TenantTable
}

// buildStack assembles one arbiter stack over the shared dataset: the
// catalog (seeded by catSeed), a history repository, the policy (wrapped
// in weighted fair share when tenants are configured), the admission
// controller and the executor. reg (nil = the process default), tracer
// and store are the caller's; the epoch watchdog is armed only over a
// store, since a preempted epoch rolls back to its checkpoint.
func buildStack(o stackOpts, catSeed uint64, reg *obs.Registry, tracer *core.Tracer,
	store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, core.AQPScheduler, error) {
	cat := tpch.NewCatalog(o.ds, catSeed)
	repo := estimate.NewRepository()
	sched, err := cliutil.NewAQPPolicy(o.policy, repo, cat)
	if err != nil {
		return nil, nil, nil, err
	}
	if o.tenants.Enabled() {
		// Weighted fair share wraps the policy: quotas gate arrivals at
		// admission, the DRF layer divides threads among active tenants.
		sched = core.NewFairShareAQP(sched, o.tenants.Weights())
	}
	cfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	cfg.Obs = reg
	cfg.Tracer = tracer
	cfg.Admission = admission.NewController(admission.Config{
		MaxQueueDepth: o.queueBound,
		SlackFactor:   o.slack,
		Policy:        o.admit,
		Obs:           reg,
		Tenants:       o.tenants,
	})
	cfg.AgingRounds = o.aging
	cfg.Store = store
	if store != nil {
		cfg.WatchdogSlack = o.wdSlack
	}
	return core.NewAQPExecutor(cfg, sched, repo), cat, sched, nil
}

// shardedOpts carries the sharded daemon's configuration from the flag
// set into runSharded.
type shardedOpts struct {
	stackOpts
	socket     string
	listeners  []string
	ingDepth   int
	ingBatch   int
	journalDir string
	shards     int
	seed       uint64
	traceRing  int
	pace       float64
	httpAddr   string
	healProbe  float64
	healBudget int
	faultRate  float64
}

// faultIO builds the disk layer for one durable state directory: the
// real filesystem normally, a seeded fault injector when -fault-rate is
// set (write failures land ENOSPC short writes, fsync failures deal
// EIO, and each drawn fault extends over a 4-op burst — long enough to
// latch the journal degraded so the heal path is observable live).
func faultIO(rate float64, seed uint64, index int) diskio.IO {
	if rate <= 0 {
		return nil // nil selects the passthrough OS layer
	}
	return diskio.NewFaulty(nil, diskio.FaultConfig{
		Seed:          seed + uint64(index),
		WriteFailRate: rate,
		SyncFailRate:  rate,
		BurstOps:      4,
	})
}

// runSharded runs the router-fronted multi-arbiter daemon: one shared
// TPC-H dataset, N isolated shard stacks (catalog, history repository,
// scheduler, admission controller, tracer, metrics registry) built on
// demand — at boot and again on every supervised restart.
func runSharded(o shardedOpts) error {
	build := func(index int, store *core.CheckpointStore) (*core.AQPExecutor, *tpch.Catalog, *obs.Registry, error) {
		reg := obs.NewRegistry()
		exec, cat, _, err := buildStack(o.stackOpts, o.seed+uint64(index), reg, core.NewTracer(o.traceRing), store)
		return exec, cat, reg, err
	}
	router, err := serve.NewRouter(serve.RouterConfig{
		Socket:          o.socket,
		Listeners:       o.listeners,
		IngressDepth:    o.ingDepth,
		IngressBatch:    o.ingBatch,
		Shards:          o.shards,
		Dir:             o.journalDir,
		Build:           build,
		Pace:            o.pace,
		HealProbeSecs:   o.healProbe,
		MaxHealFailures: o.healBudget,
		DiskIO:          func(index int) diskio.IO { return faultIO(o.faultRate, o.seed, index) },
	})
	if err != nil {
		return err
	}
	if o.httpAddr != "" {
		dbg, err := obs.StartDebug(o.httpAddr, nil)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug HTTP on http://%s (/metrics, /debug/pprof)\n", dbg.Addr())
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigCh
		fmt.Printf("\n%v: draining %d shards…\n", sig, o.shards)
		router.Drain()
	}()
	fmt.Printf("serving %d shards on %s (pace %gx, state under %s)\n", o.shards, o.socket, o.pace, o.journalDir)
	start := time.Now()
	if err := router.Serve(); err != nil {
		return err
	}
	r := router.Final()
	fmt.Printf("drained %d/%d jobs across %d shards after %s (virtual now %.0fs)\n",
		r.Terminal, r.Jobs, o.shards, time.Since(start).Round(time.Millisecond), r.VirtualNow)
	if !r.OK {
		return fmt.Errorf("%s", r.Error)
	}
	return nil
}

// runClient is the resilient client REPL: one JSON request per stdin
// line, relayed through the reconnecting client, one JSON reply per
// stdout line. Restart detections are reported on stderr so piped output
// stays clean. Submits should carry a req_id — the journal-backed dedupe
// is what makes a retried submit idempotent when the daemon was killed
// between applying it and replying.
func runClient(socket, codec string) error {
	cl, err := serve.NewClient(serve.ClientConfig{Socket: socket, Codec: codec, RetryHinted: true})
	if err != nil {
		return err
	}
	defer cl.Close()
	out := json.NewEncoder(os.Stdout)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	restarts := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m serve.Message
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			log.Printf("bad request: %v", err)
			continue
		}
		resp, err := cl.Do(m)
		if err != nil {
			return err
		}
		if r := cl.Restarts(); r > restarts {
			restarts = r
			log.Printf("server restarted (epoch %d): journaled jobs recovered; retry lost submits with their req_id", cl.ServerEpoch())
		}
		if err := out.Encode(resp); err != nil {
			return err
		}
	}
	return sc.Err()
}
