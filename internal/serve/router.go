// Sharded multi-arbiter serving: a router fronting N shards, each a full
// durable arbiter (own engine, journal, checkpoint namespace) living in
// the router's process. The router speaks the same protocol as a single
// server, so existing clients work unchanged: submits are routed by
// consistent hash on the job id, status follows the job wherever it
// lives (including across migrations), and stats/metrics/health fan in
// across shards — every shard's registry renders into one scrape under a
// shard="i" label. Router-only ops extend the protocol:
//
//	shards    the supervision report, one row per shard
//	migrate   move a job to another shard via checkpoint-carried handoff
//	retire    migrate a shard's jobs off, drain it, reroute around it
//
// A router→shard call is a method call onto the shard's ingress ring
// (Server.dispatch), the path a connection on the shard's own socket
// takes, so the shard's single driver goroutine, ring backpressure and
// group commit apply unchanged. It returns when the shard replies or its
// driver exits. There is no timeout: the call can only fail to return if
// the driver never does, and no deadline recovers that (a restart's Kill
// waits on the same driver), while a retried timeout would re-send ops
// that are not idempotent.
//
// Graceful degradation is the router's core robustness contract: a down
// shard yields a typed shard-unavailable reply with a retry-after hint
// while the supervisor restarts it from its journal. Down shards are
// never rerouted around — their durable state lives in their journal —
// but retired shards are, by walking the hash ring to the next live
// shard.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/obs"
)

// maxRestartBackoff caps the supervisor's doubling restart delay.
const maxRestartBackoff = 5 * time.Second

// RouterConfig parameterizes a sharded daemon.
type RouterConfig struct {
	// Socket is the router's public Unix socket. Shard i also listens on
	// Socket + ".shard<i>", for direct access only: the router calls its
	// shards in-process.
	Socket string
	// Listeners are extra public listen specs ("tcp:host:port" or
	// "unix:/path") served alongside Socket, each speaking both codecs.
	// Shard sockets stay Unix sockets regardless.
	Listeners []string
	// Shards is the shard count (>= 1).
	Shards int
	// Dir is the durable-state root; shard i journals under Dir/shard-<i>.
	Dir string
	// Build constructs each shard's executor stack (boot and restart).
	Build ShardBuilder
	// Pace applies to every shard (see Config).
	Pace float64
	// IngressDepth and IngressBatch apply to every shard's driver loop
	// (see Config): the bounded request ring and the group-commit window.
	IngressDepth int
	IngressBatch int
	// Obs is the router's own registry (request counters, shard gauges,
	// migration counts). Nil uses obs.Default().
	Obs *obs.Registry
	// ProbeInterval is the supervisor's health-probe period. Defaults to
	// 200ms.
	ProbeInterval time.Duration
	// RestartBackoff is the initial delay before a down shard's restart
	// attempt, doubling per failed attempt up to maxRestartBackoff.
	// Defaults to 100ms.
	RestartBackoff time.Duration
	// DiskIO, when set, supplies the disk-I/O layer each shard's durable
	// pair (journal + checkpoint store) routes through — the torture
	// harness's hook for dealing per-shard disk faults. Called at boot
	// and on every supervised restart; nil (or a nil return) means the
	// real filesystem.
	DiskIO func(index int) diskio.IO
	// HealProbeSecs and MaxHealFailures apply to every shard's journal
	// heal prober (see Config). Zero keeps the per-server defaults.
	HealProbeSecs   float64
	MaxHealFailures int
}

// Router is the sharded daemon's front end.
type Router struct {
	cfg    RouterConfig
	ring   *hashRing
	shards []*shardHandle
	reg    *obs.Registry
	met    *routerMetrics

	// locMu guards the routing state: the job-location overrides
	// (migrations and reroutes beat the ring), the submit id counter, and
	// the advance horizon restarted shards catch up to.
	locMu         sync.Mutex
	location      map[string]int
	nextID        int
	virtualTarget float64

	// migMu serializes migrations (including the ones retire runs).
	migMu sync.Mutex

	listenerSet

	mu    sync.Mutex // guards final
	final Response

	ready       chan struct{}
	supStop     chan struct{}
	supDone     chan struct{}
	supStopOnce sync.Once
}

// routerMetrics holds the router's own obs handles: per-op request
// counters plus per-shard supervision counters.
type routerMetrics struct {
	requests      map[string]*obs.Counter
	other         *obs.Counter
	forwards      []*obs.Counter
	unavailable   []*obs.Counter
	restarts      []*obs.Counter
	probeFailures []*obs.Counter
	shardUp       []*obs.Gauge
	migrations    *obs.Counter
}

// routerOps are the router's protocol operations (the single-server ops
// plus the sharding ops).
var routerOps = []string{"submit", "status", "stats", "advance", "metrics", "trace-tail", "health", "resume", "shards", "migrate", "retire", "drain"}

func newRouterMetrics(reg *obs.Registry, shards int) *routerMetrics {
	m := &routerMetrics{requests: make(map[string]*obs.Counter, len(routerOps)), migrations: reg.Counter("rotary_router_migrations_total", "jobs moved between shards by checkpoint-carried migration")}
	for _, op := range routerOps {
		m.requests[op] = reg.Counter(fmt.Sprintf("rotary_router_requests_total{op=%q}", op), "router requests by operation")
	}
	m.other = reg.Counter(`rotary_router_requests_total{op="other"}`, "router requests by operation")
	for i := 0; i < shards; i++ {
		l := fmt.Sprintf("{shard=%q}", strconv.Itoa(i))
		m.forwards = append(m.forwards, reg.Counter("rotary_router_forwards_total"+l, "requests forwarded to each shard"))
		m.unavailable = append(m.unavailable, reg.Counter("rotary_router_unavailable_total"+l, "requests answered shard-unavailable per shard"))
		m.restarts = append(m.restarts, reg.Counter("rotary_router_restarts_total"+l, "supervised shard restarts"))
		m.probeFailures = append(m.probeFailures, reg.Counter("rotary_router_probe_failures_total"+l, "health probes that found a shard dead or wedged"))
		m.shardUp = append(m.shardUp, reg.Gauge("rotary_router_shard_up"+l, "1 while the shard is running, 0 otherwise"))
	}
	return m
}

func (m *routerMetrics) count(op string) {
	if c, ok := m.requests[op]; ok {
		c.Inc()
		return
	}
	m.other.Inc()
}

// ShardDir is shard index's state directory under a router's Dir: its
// journal, its checkpoints and whatever else its builder keeps there.
func ShardDir(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", index))
}

// NewRouter builds a sharded daemon front end. Nothing starts until
// Serve.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Socket == "" {
		return nil, errors.New("serve: router socket path required")
	}
	if cfg.Shards < 1 {
		return nil, errors.New("serve: router needs at least one shard")
	}
	if cfg.Dir == "" {
		return nil, errors.New("serve: router needs a durable-state dir (shards are journaled)")
	}
	if cfg.Build == nil {
		return nil, errors.New("serve: router needs a shard builder")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 200 * time.Millisecond
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 100 * time.Millisecond
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	r := &Router{
		cfg:      cfg,
		ring:     newHashRing(cfg.Shards),
		reg:      reg,
		met:      newRouterMetrics(reg, cfg.Shards),
		location: make(map[string]int),
		ready:    make(chan struct{}),
		supStop:  make(chan struct{}),
		supDone:  make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		r.shards = append(r.shards, &shardHandle{
			index: i,
			dir:   ShardDir(cfg.Dir, i),
		})
	}
	return r, nil
}

// Serve starts every shard, binds the router socket, and blocks serving
// connections until a drain. A shard that fails to start does not abort
// the daemon: it is marked down and the supervisor keeps retrying it
// while the rest of the fleet serves.
func (r *Router) Serve() error {
	for _, h := range r.shards {
		if err := os.MkdirAll(h.dir, 0o755); err != nil {
			return err
		}
		if err := r.startShard(h); err != nil {
			r.markDown(h, err)
		}
	}
	if err := r.bind(r.cfg.Socket, r.cfg.Listeners); err != nil {
		return err
	}
	go r.supervise()
	close(r.ready)
	r.acceptAll(r.handleMessage, nil, nil)
	r.quiesce()
	return nil
}

// Ready is closed once every shard has been started (or marked down) and
// the router socket is accepting.
func (r *Router) Ready() <-chan struct{} { return r.ready }

// Final reports the drain response once the router has drained.
func (r *Router) Final() Response {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.final
}

// Drain gracefully shuts the daemon down: stop supervision, drain every
// running shard (fast-forwarding its jobs to terminal statuses), report
// the merged result, and close the router socket. Down shards cannot be
// drained — their journaled jobs recover on the next start — and are
// reported as such.
func (r *Router) Drain() Response {
	r.stopSupervisor()
	jobs, terminal := 0, 0
	maxVN := 0.0
	ok := true
	var notes []string
	for _, h := range r.shards {
		h.mu.Lock()
		state, srv := h.state, h.srv
		h.state = ShardRetired // no restarts past this point
		h.mu.Unlock()
		switch state {
		case ShardRunning:
			resp := srv.Drain()
			if resp.Status != "drained" {
				ok = false
				notes = append(notes, fmt.Sprintf("shard %d: drain: shard stopped before it drained", h.index))
				continue
			}
			jobs += resp.Jobs
			terminal += resp.Terminal
			if resp.VirtualNow > maxVN {
				maxVN = resp.VirtualNow
			}
			if !resp.OK {
				ok = false
				notes = append(notes, fmt.Sprintf("shard %d: %s", h.index, resp.Error))
			}
		case ShardRetired:
			// already drained by retire
		default:
			ok = false
			notes = append(notes, fmt.Sprintf("shard %d: down (journaled jobs recover on next start)", h.index))
		}
	}
	resp := Response{OK: ok, Status: "drained", Jobs: jobs, Terminal: terminal, VirtualNow: maxVN}
	if len(notes) > 0 {
		resp.Error = strings.Join(notes, "; ")
	}
	if !ok {
		resp.Code = CodeShardUnavailable
	}
	r.mu.Lock()
	r.final = resp
	r.mu.Unlock()
	r.closeListeners()
	return resp
}

// Close hard-stops the daemon (test teardown): supervision stops, every
// live shard is killed (journals stay durable), the router socket
// closes.
func (r *Router) Close() {
	r.stopSupervisor()
	for _, h := range r.shards {
		h.mu.Lock()
		srv, state := h.srv, h.state
		h.state = ShardRetired
		h.mu.Unlock()
		if srv != nil && state != ShardRetired {
			srv.Kill()
		}
	}
	r.closeListeners()
}

func (r *Router) stopSupervisor() {
	r.supStopOnce.Do(func() { close(r.supStop) })
	select {
	case <-r.ready:
		<-r.supDone // supervise was started by Serve
	default:
		// Serve never got far enough to start the supervisor.
	}
}

// handleLine parses and executes one request line. It is the fuzzing
// surface: whatever the bytes, the reply is a typed Response — never a
// panic, never a wedge.
func (r *Router) handleLine(line []byte) Response {
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return Response{Error: "serve: bad request: " + err.Error(), Code: CodeBadRequest}
	}
	return r.handleMessage(m)
}

// handleMessage executes one router op.
func (r *Router) handleMessage(m Message) Response {
	r.met.count(m.Op)
	switch m.Op {
	case "submit":
		return r.submit(m)
	case "status":
		return r.status(m)
	case "stats":
		return r.aggregateStats()
	case "advance":
		return r.advance(m)
	case "metrics":
		return r.metricsResponse(m)
	case "trace-tail":
		h, errResp, ok := r.shardArg(m)
		if !ok {
			return errResp
		}
		return r.forward(h, m)
	case "health":
		return r.healthResponse(0)
	case "resume":
		return r.healthResponse(m.ServerEpoch)
	case "shards":
		return r.shardsResponse()
	case "migrate":
		return r.migrate(m)
	case "retire":
		return r.retire(m)
	case "drain":
		return r.Drain()
	default:
		return Response{Error: fmt.Sprintf("serve: unknown op %q", m.Op), Code: CodeUnknownOp}
	}
}

// shardArg resolves an explicitly shard-addressed op's target.
func (r *Router) shardArg(m Message) (*shardHandle, Response, bool) {
	if m.Shard < 0 || m.Shard >= len(r.shards) {
		return nil, Response{Error: fmt.Sprintf("serve: shard %d out of range [0,%d)", m.Shard, len(r.shards)), Code: CodeBadShard}, false
	}
	return r.shards[m.Shard], Response{}, true
}

// forward hands one request to a shard's ingress ring, translating its
// supervision state into typed replies. A driver that exits instead of
// replying (killed, crashed, drained) reads as a down shard.
func (r *Router) forward(h *shardHandle, m Message) Response {
	h.mu.Lock()
	state, srv := h.state, h.srv
	h.mu.Unlock()
	switch state {
	case ShardRetired:
		return Response{Error: fmt.Sprintf("serve: shard %d retired", h.index), Code: CodeShardRetired, Shard: h.index}
	case ShardRunning:
	default:
		return r.unavailable(h)
	}
	resp := srv.dispatch(m)
	if resp.Code == CodeDraining {
		r.met.unavailable[h.index].Inc()
		return Response{
			Error:          fmt.Sprintf("serve: shard %d: %s", h.index, resp.Error),
			Code:           CodeShardUnavailable,
			Shard:          h.index,
			RetryAfterSecs: r.cfg.RestartBackoff.Seconds(),
		}
	}
	r.met.forwards[h.index].Inc()
	resp.Shard = h.index
	return resp
}

// unavailable is the typed graceful-degradation reply for a down shard,
// with the supervisor's restart horizon as the retry-after hint.
func (r *Router) unavailable(h *shardHandle) Response {
	h.mu.Lock()
	retry := time.Until(h.retryAt).Seconds()
	h.mu.Unlock()
	if retry < 0.05 {
		retry = 0.05
	}
	r.met.unavailable[h.index].Inc()
	return Response{
		Error:          fmt.Sprintf("serve: shard %d unavailable (supervised restart pending)", h.index),
		Code:           CodeShardUnavailable,
		Shard:          h.index,
		RetryAfterSecs: retry,
	}
}

// ownerOf resolves which shard holds (or should hold) a job: the
// location map's explicit override first — migrations and reroutes beat
// the ring — then the consistent-hash owner, walking past retired shards
// only. A down shard still owns its keys.
func (r *Router) ownerOf(id string) *shardHandle { return r.ownerOfKey(id, id) }

// ownerOfKey is ownerOf with an explicit ring key: submits route by
// tenant (when set) so one tenant's jobs co-locate deterministically on
// one shard — its quota and fair-share state then live under a single
// admission controller — while the location map stays keyed by job id
// (migrations move individual jobs, not tenants).
func (r *Router) ownerOfKey(id, key string) *shardHandle {
	r.locMu.Lock()
	if i, ok := r.location[id]; ok {
		r.locMu.Unlock()
		return r.shards[i]
	}
	r.locMu.Unlock()
	idx := r.ring.Owner(key, func(i int) bool { return r.shards[i].State() != ShardRetired })
	if idx < 0 {
		return nil
	}
	return r.shards[idx]
}

// routingKey is a submission's consistent-hash key: the tenant when one
// is set, else the job id. The "tenant:" prefix keeps a tenant named
// like a job id from colliding with that job's key.
func routingKey(m Message) string {
	if m.Tenant != "" {
		return "tenant:" + m.Tenant
	}
	return m.ID
}

func (r *Router) virtualTargetGet() float64 {
	r.locMu.Lock()
	defer r.locMu.Unlock()
	return r.virtualTarget
}

// submit routes a submission to its hash-owner. An id-less submit gets a
// router-generated id first: routing needs the key before any shard has
// seen the job.
func (r *Router) submit(m Message) Response {
	if err := ValidateTenant(m.Tenant); err != nil {
		return Response{Error: err.Error(), Code: CodeBadRequest}
	}
	if m.ID == "" {
		r.locMu.Lock()
		m.ID = fmt.Sprintf("srv-%05d", r.nextID)
		r.nextID++
		r.locMu.Unlock()
	}
	h := r.ownerOfKey(m.ID, routingKey(m))
	if h == nil {
		return Response{Error: "serve: no live shard to accept the submission", Code: CodeShardUnavailable}
	}
	resp := r.forward(h, m)
	if resp.OK || resp.Code == CodeDuplicateRequest {
		id := resp.ID
		if id == "" {
			id = m.ID
		}
		r.locMu.Lock()
		r.location[id] = h.index
		r.locMu.Unlock()
	}
	return resp
}

// status follows the job wherever it lives. The hash-owner answering
// "migrated" (the source-side tombstone) or unknown-job triggers a sweep
// of the other live shards — the paths a migrated job's status takes
// after the router lost its location map to a restart.
func (r *Router) status(m Message) Response {
	if m.ID == "" {
		return Response{Error: "serve: status requires a job id", Code: CodeBadRequest}
	}
	h := r.ownerOf(m.ID)
	if h == nil {
		return Response{Error: fmt.Sprintf("serve: unknown job %q", m.ID), Code: CodeUnknownJob}
	}
	resp := r.forward(h, m)
	if resp.Code == CodeUnknownJob || (resp.OK && resp.Status == "migrated") {
		for _, other := range r.shards {
			if other == h || other.State() != ShardRunning {
				continue
			}
			alt := r.forward(other, m)
			if alt.OK && alt.Status != "migrated" {
				r.locMu.Lock()
				r.location[m.ID] = other.index
				r.locMu.Unlock()
				return alt
			}
		}
	}
	return resp
}

// advance fast-forwards every non-retired shard and raises the advance
// horizon restarted shards catch up to. A down shard does not block the
// fleet: the reply carries a shard-unavailable caveat and the supervisor
// replays the missing time after the restart.
func (r *Router) advance(m Message) Response {
	if m.Seconds < 0 {
		return Response{Error: "serve: advance seconds must be >= 0", Code: CodeBadRequest}
	}
	maxVN := 0.0
	caveat := false
	for _, h := range r.shards {
		if h.State() == ShardRetired {
			continue
		}
		resp := r.forward(h, m)
		if !resp.OK {
			caveat = true
			continue
		}
		if resp.VirtualNow > maxVN {
			maxVN = resp.VirtualNow
		}
	}
	r.locMu.Lock()
	if maxVN > r.virtualTarget {
		r.virtualTarget = maxVN
	}
	target := r.virtualTarget
	r.locMu.Unlock()
	resp := Response{OK: true, VirtualNow: target}
	if caveat {
		resp.Code = CodeShardUnavailable
	}
	return resp
}

// aggregateStats fans the stats op across shards and merges the sums.
func (r *Router) aggregateStats() Response {
	jobs, terminal := 0, 0
	maxVN := 0.0
	ok := true
	var reports []string
	for _, h := range r.shards {
		if h.State() == ShardRetired {
			continue
		}
		resp := r.forward(h, Message{Op: "stats"})
		if !resp.OK {
			ok = false
			reports = append(reports, fmt.Sprintf("=== shard %d ===\nunavailable: %s", h.index, resp.Error))
			continue
		}
		jobs += resp.Jobs
		terminal += resp.Terminal
		if resp.VirtualNow > maxVN {
			maxVN = resp.VirtualNow
		}
		reports = append(reports, fmt.Sprintf("=== shard %d ===\n%s", h.index, resp.Report))
	}
	resp := Response{OK: ok, Jobs: jobs, Terminal: terminal, VirtualNow: maxVN, Report: strings.Join(reports, "\n")}
	if !ok {
		resp.Code = CodeShardUnavailable
	}
	return resp
}

// metricsResponse renders the router's own registry and every running
// shard's in one exposition, each shard's samples labeled shard="i".
func (r *Router) metricsResponse(m Message) Response {
	regs := []obs.Labeled{{Reg: r.reg}}
	for _, h := range r.shards {
		h.mu.Lock()
		if h.state == ShardRunning {
			regs = append(regs, obs.Labeled{Reg: h.srv.reg, Key: "shard", Value: strconv.Itoa(h.index)})
		}
		h.mu.Unlock()
	}
	return Response{OK: true, Report: obs.RenderMerged(m.Wall, regs...)}
}

// healthResponse aggregates shard health. The daemon-level server epoch
// is the SUM of shard epochs, so any single shard restart still reads as
// an epoch change in the resume handshake (clientEpoch != 0 compares it).
func (r *Router) healthResponse(clientEpoch int) Response {
	jobs, terminal, epochSum, down := 0, 0, 0, 0
	maxVN := 0.0
	for _, h := range r.shards {
		if h.State() == ShardRunning {
			resp := r.forward(h, Message{Op: "health"})
			if resp.OK || resp.Code == "" {
				jobs += resp.Jobs
				terminal += resp.Terminal
				epochSum += resp.ServerEpoch
				if resp.VirtualNow > maxVN {
					maxVN = resp.VirtualNow
				}
				continue
			}
		}
		h.mu.Lock()
		state, last := h.state, h.lastEpoch
		h.mu.Unlock()
		if state != ShardRetired {
			down++
		}
		epochSum += last
	}
	resp := Response{
		OK:          true,
		Status:      "healthy",
		Jobs:        jobs,
		Terminal:    terminal,
		VirtualNow:  maxVN,
		ServerEpoch: epochSum,
	}
	if down > 0 {
		resp.Status = fmt.Sprintf("degraded (%d shard(s) down)", down)
	}
	if clientEpoch != 0 && clientEpoch != epochSum {
		resp.Code = CodeServerRestarted
	}
	return resp
}

// shardsResponse is the supervision report: one row per shard.
func (r *Router) shardsResponse() Response {
	resp := Response{OK: true}
	for _, h := range r.shards {
		h.mu.Lock()
		info := ShardInfo{Index: h.index, State: h.state.String(), Restarts: h.restarts, ServerEpoch: h.lastEpoch}
		if h.lastErr != nil {
			info.Error = h.lastErr.Error()
		}
		state := h.state
		h.mu.Unlock()
		if state == ShardRunning {
			if hr := r.forward(h, Message{Op: "health"}); hr.OK {
				info.Jobs = hr.Jobs
				info.Terminal = hr.Terminal
				info.VirtualNow = hr.VirtualNow
				info.ServerEpoch = hr.ServerEpoch
			}
		}
		resp.Shards = append(resp.Shards, info)
	}
	return resp
}

// migrate moves one job to the target shard by checkpoint-carried
// handoff: migrate-out (drain + detach on the source), export/import the
// checkpoint frame between the shards' durable namespaces, migrate-in
// (journal + re-register on the target), migrate-commit (source-side
// tombstone). A failure after the detach re-registers the job on its
// source — and even if that fails, the source journal still lists the
// job live, so the next shard restart recovers it: no admitted job is
// ever lost to a half-finished migration.
func (r *Router) migrate(m Message) Response {
	if m.ID == "" {
		return Response{Error: "serve: migrate requires a job id", Code: CodeBadRequest}
	}
	dst, errResp, ok := r.shardArg(m)
	if !ok {
		return errResp
	}
	r.migMu.Lock()
	defer r.migMu.Unlock()
	src := r.ownerOf(m.ID)
	if src == nil {
		return Response{Error: fmt.Sprintf("serve: unknown job %q", m.ID), Code: CodeUnknownJob}
	}
	if src == dst {
		return Response{OK: true, ID: m.ID, Shard: src.index, Code: CodeMigrateNoop}
	}
	if dst.State() != ShardRunning {
		if dst.State() == ShardRetired {
			return Response{Error: fmt.Sprintf("serve: shard %d retired", dst.index), Code: CodeShardRetired, Shard: dst.index}
		}
		return r.unavailable(dst)
	}
	out := r.forward(src, Message{Op: "migrate-out", ID: m.ID})
	if !out.OK || out.Code == CodeMigrateNoop {
		return out
	}
	if out.Job == nil {
		return Response{Error: fmt.Sprintf("serve: shard %d returned no job record for %q", src.index, m.ID), Code: CodeBadRequest}
	}
	// Checkpoint transfer, out of band: the frame moves between the two
	// shards' durable namespaces before the target registers the job, so
	// the target's first grant can reattach. A job that never ran has no
	// frame — the target then restarts it from pristine scratch, exactly
	// like crash-restart recovery.
	if err := r.transferCheckpoint(src, dst, m.ID); err != nil {
		back := r.forward(src, Message{Op: "migrate-in", Job: out.Job})
		if !back.OK {
			// The source journal still lists the job live; its next restart
			// re-registers it. Nothing is lost, but report the degraded path.
			return Response{Error: fmt.Sprintf("serve: migrate %s: %v (job recovers on shard %d's next restart)", m.ID, err, src.index), Code: CodeShardUnavailable, Shard: src.index}
		}
		return Response{Error: fmt.Sprintf("serve: migrate %s: %v (job re-registered on shard %d)", m.ID, err, src.index), Code: CodeShardUnavailable, Shard: src.index}
	}
	in := r.forward(dst, Message{Op: "migrate-in", Job: out.Job})
	if !in.OK {
		back := r.forward(src, Message{Op: "migrate-in", Job: out.Job})
		if !back.OK {
			return Response{Error: fmt.Sprintf("serve: migrate %s: target refused (%s) and source re-register failed (%s); job recovers on shard %d's next restart", m.ID, in.Error, back.Error, src.index), Code: CodeShardUnavailable, Shard: src.index}
		}
		return in
	}
	// Commit point passed: the job is durable on the target. A commit or
	// cleanup failure past here degrades to bounded duplicate work on the
	// source after ITS next restart — never loss — so errors are not
	// propagated to the caller.
	r.forward(src, Message{Op: "migrate-commit", ID: m.ID})
	if st := src.Store(); st != nil {
		_ = st.Delete(m.ID)
	}
	r.locMu.Lock()
	r.location[m.ID] = dst.index
	r.locMu.Unlock()
	r.met.migrations.Inc()
	return Response{
		OK:         true,
		ID:         m.ID,
		Status:     in.Status,
		BestEffort: in.BestEffort,
		VirtualNow: in.VirtualNow,
		Shard:      dst.index,
	}
}

// transferCheckpoint copies a job's durable checkpoint frame from the
// source shard's namespace into the target's. No frame is not an error.
func (r *Router) transferCheckpoint(src, dst *shardHandle, id string) error {
	srcStore, dstStore := src.Store(), dst.Store()
	if srcStore == nil || dstStore == nil {
		return errors.New("serve: shard checkpoint store unavailable")
	}
	frame, err := srcStore.Export(id)
	if errors.Is(err, core.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	return dstStore.Import(id, frame)
}

// retire migrates every job the router has located on the shard to its
// ring successor, drains the emptied shard, and reroutes around it
// permanently. Retire is an online operation driven by the router's
// location map; jobs submitted directly on the shard's own socket are
// not tracked and drain with the shard.
func (r *Router) retire(m Message) Response {
	h, errResp, ok := r.shardArg(m)
	if !ok {
		return errResp
	}
	if h.State() == ShardRetired {
		return Response{OK: true, Shard: h.index, Status: "retired", Code: CodeShardRetired}
	}
	if h.State() != ShardRunning {
		return r.unavailable(h)
	}
	r.locMu.Lock()
	var ids []string
	for id, i := range r.location {
		if i == h.index {
			ids = append(ids, id)
		}
	}
	r.locMu.Unlock()
	sort.Strings(ids)
	moved := 0
	for _, id := range ids {
		tgt := r.ring.Owner(id, func(i int) bool {
			return i != h.index && r.shards[i].State() == ShardRunning
		})
		if tgt < 0 {
			return Response{Error: "serve: no live shard to absorb the retiring shard's jobs", Code: CodeShardUnavailable, Shard: h.index}
		}
		mr := r.migrate(Message{Op: "migrate", ID: id, Shard: tgt})
		if !mr.OK {
			return mr
		}
		if mr.Code != CodeMigrateNoop {
			moved++
		}
	}
	// Flip the state before draining so the supervisor does not mistake
	// the drain-induced serve exit for a crash and restart the shard.
	h.mu.Lock()
	srv := h.srv
	h.state = ShardRetired
	h.mu.Unlock()
	r.met.shardUp[h.index].Set(0)
	final := srv.Drain()
	resp := Response{OK: true, Shard: h.index, Status: "retired", Jobs: moved, VirtualNow: final.VirtualNow}
	if final.Status != "drained" {
		resp.Error = fmt.Sprintf("serve: retire shard %d: drain: shard stopped before it drained", h.index)
	}
	return resp
}
