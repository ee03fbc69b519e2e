package driver

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rotary/benchmark/inputs"
	"rotary/internal/serve"
)

// Workload names, as BENCHMARK.json lists them.
const (
	Ingest  = "ingest"
	Steady  = "steady"
	Replay  = "replay"
	Sharded = "sharded"
)

// Workloads is every workload in report order.
var Workloads = []string{Ingest, Steady, Replay, Sharded}

// Sizes fixes how much work one rep of each workload does. A rep is the
// unit the benchmark repeats and takes medians over; its size never
// depends on how fast the server is.
type Sizes struct {
	// IngestJobs is the closed-loop submit count of one ingest or sharded
	// rep. 1 000 Table-I submits journal about a third of a MiB, so a rep
	// stays under the 1 MiB compaction threshold.
	IngestJobs int
	// AgedJobs is how many short-deadline submits age the steady server's
	// journal before its window opens. A terminal job holds 121 bytes of
	// the snapshot, which passes the 1 MiB compaction threshold at about
	// 8 700 jobs; from there every append compacts. 9 000 leave a margin of
	// 36 KiB and keep the aging, a megabyte rewritten per batch past the
	// threshold, from being most of what the workload writes.
	AgedJobs int
	// SteadyRate is the open-loop submit rate of the steady window and
	// SteadyJobs its length in submits.
	SteadyRate float64
	SteadyJobs int
	// ReplayJobs is the length of the replay arrival script; 30 is the
	// paper's Table-I workload size.
	ReplayJobs int
	// StatusEvery reads a status before every n-th submit of a load.
	StatusEvery int
}

// FullSizes are the sizes BENCHMARK.json's bounds were measured at.
var FullSizes = Sizes{IngestJobs: 1000, AgedJobs: 9000, SteadyRate: 20, SteadyJobs: 80, ReplayJobs: 30, StatusEvery: 4}

// QuickSizes keep the smoke test under a few seconds.
var QuickSizes = Sizes{IngestJobs: 40, AgedJobs: 60, SteadyRate: 40, SteadyJobs: 20, ReplayJobs: 6, StatusEvery: 4}

// Env is what a rep runs against.
type Env struct {
	// Launch builds the daemon under test.
	Launch Launcher
	// Dir is the rep's scratch directory under the working directory,
	// relative so socket paths stay short; journals live in it, so every
	// fsync hits the real disk.
	Dir string
	// Conns is the generator's connection count.
	Conns int
	Sizes Sizes
	// NonTerminal counts the live jobs a journal directory would recover,
	// read from the files the daemon left behind.
	NonTerminal func(journalDir string, shards int) (int, error)
	// Observe receives client spans on traced runs.
	Observe Observer
}

// Rep is everything one rep of a workload measured and checked.
type Rep struct {
	// SetupS is daemon start to first OK health, plus aging on steady.
	SetupS float64
	Load   Load
	// DrainS is the drain op's round trip; RecoverS is restart to first
	// OK resume on the journal the workload left behind (after SIGKILL
	// on steady, after the drain elsewhere); MakespanS is first load
	// request to drain reply.
	DrainS, RecoverS, MakespanS float64
	// Unanswerable counts acked ids whose status failed after the restart.
	Unanswerable int
	// Failures lists every broken output check.
	Failures []string
	// Metrics is the daemon's own registry just before the drain, parsed
	// from the metrics op (wall-clock series included).
	Metrics map[string]float64
	// Outcomes counts final job statuses as the restarted daemon reports
	// them; FinalVirtualNow is the drained clock. Together with Metrics
	// they are the replay workload's deterministic output.
	Outcomes        map[string]int
	FinalVirtualNow float64
	// Booted lists the daemons the rep started, for their rusage.
	Booted []Daemon
}

// Failed counts operations that did not do what the workload needs:
// refusals, errors, acked ids lost over the restart, broken checks.
func (r *Rep) Failed() int {
	return r.Load.Refused + r.Load.Errors + r.Unanswerable + len(r.Failures)
}

func (r *Rep) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Fingerprint renders the deterministic output of a frozen-clock rep:
// outcomes, epochs, checkpoint writes, journal records and the final
// virtual clock. Two runs of the same script must render it identically.
func (r *Rep) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual_now=%.6f", r.FinalVirtualNow)
	for _, k := range []string{
		"rotary_aqp_epochs_total", "rotary_aqp_grants_total", "rotary_aqp_stops_total",
		"rotary_ckpt_writes_total", "rotary_serve_journal_records_total", "rotary_admission_admitted_total",
	} {
		fmt.Fprintf(&b, " %s=%g", k, r.Metrics[k])
	}
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Outcomes[k])
	}
	return b.String()
}

// RunRep runs one rep of the named workload with inputs from the seed.
// An error means the harness could not run; a server that misbehaves is
// reported through Rep.Failed instead.
func RunRep(name string, env Env, seed uint64) (*Rep, error) {
	if err := os.MkdirAll(env.Dir, 0o755); err != nil {
		return nil, err
	}
	boot := Boot{
		Socket:     filepath.Join(env.Dir, "s.sock"),
		JournalDir: filepath.Join(env.Dir, "journal"),
		Shards:     1,
	}
	rep := &Rep{}
	sz := env.Sizes
	switch name {
	case Ingest, Sharded, Replay:
		if name == Sharded {
			boot.Shards = 2
		}
		d, setup, err := startDaemon(env, boot, rep)
		if err != nil {
			return nil, err
		}
		defer d.Kill()
		rep.SetupS = setup
		// Inputs are generated before the clock starts.
		var load func() Load
		if name == Replay {
			trace := inputs.Jobs(name, sz.ReplayJobs)
			load = func() Load { return runScript(boot.Socket, trace, seed, env.Observe) }
		} else {
			cfg := loadCfg{
				socket: boot.Socket, codec: serve.CodecBinary, conns: env.Conns,
				jobs:        inputs.Jobs(name, sz.IngestJobs),
				statusEvery: sz.StatusEvery, seed: seed, obs: env.Observe,
			}
			if name == Sharded {
				cfg.codec = serve.CodecJSON
			}
			load = func() Load { return runLoad(cfg) }
		}
		t0 := time.Now()
		rep.Load = load()
		if err := finish(env, boot, d, rep, t0); err != nil {
			return nil, err
		}
	case Steady:
		if err := steady(env, boot, rep, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if rep.Load.Acked != rep.Load.Submitted {
		rep.failf("%d submits sent, %d acked (first error: %s)", rep.Load.Submitted, rep.Load.Acked, rep.Load.FirstError)
	}
	return rep, nil
}

// startDaemon boots a daemon and times it to its first OK health.
func startDaemon(env Env, boot Boot, rep *Rep) (d Daemon, secs float64, err error) {
	d = env.Launch(boot)
	rep.Booted = append(rep.Booted, d)
	t0 := time.Now()
	if err := d.Start(); err != nil {
		return nil, 0, err
	}
	if _, err := awaitOK(boot.Socket, "health"); err != nil {
		d.Kill()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// awaitOK polls the socket with fresh dials until op answers OK: the
// socket file exists before the listener is armed, so only a reply
// proves readiness.
func awaitOK(socket, op string) (serve.Response, error) {
	deadline := time.Now().Add(30 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		c, err := dial(socket, serve.CodecJSON, 0, 1, 5*time.Second, nil)
		if err != nil {
			return serve.Response{}, err
		}
		resp, err := c.cl.Do(serve.Message{Op: op})
		c.close()
		if err == nil && resp.OK {
			return resp, nil
		}
		if err == nil {
			err = fmt.Errorf("%s: %s %s", op, resp.Code, resp.Error)
		}
		last = err
		time.Sleep(2 * time.Millisecond)
	}
	return serve.Response{}, fmt.Errorf("daemon on %s never answered %s: %v", socket, op, last)
}

// control opens the connection the harness uses for its own requests
// (metrics, drain, verification). Its spans are observed too: they are
// part of the traced round-trip total.
func control(env Env, socket string) (*conn, error) {
	return dial(socket, serve.CodecJSON, env.Conns, 1, 150*time.Second, env.Observe)
}

// A router bounds every router→shard round trip to 2 s, its drain
// included, and a shard that needs longer makes the whole drain fail.
// Draining a shard's 750 queued jobs took 1.2 s here and more on a
// slow host. So the sharded workload walks the clock forward in steps a
// shard finishes in a twentieth of that budget until health reports
// every job terminal, and the drain then only shuts the daemon down. Its
// drain_s covers the walk and the drain.
const (
	routerStepSecs = 200
	routerMaxSteps = 400
)

// finish ends a frozen-clock rep: read the daemon's registry, drain it,
// wait for it to exit, then restart on the journal it left and verify.
func finish(env Env, boot Boot, d Daemon, rep *Rep, loadStart time.Time) error {
	c, err := control(env, boot.Socket)
	if err != nil {
		return err
	}
	readMetrics(c, rep)
	t0 := time.Now()
	if boot.Shards > 1 {
		for i := 0; i < routerMaxSteps; i++ {
			if resp, err := c.do(serve.Message{Op: "advance", Seconds: routerStepSecs}); err != nil || !resp.OK || resp.Code != "" {
				rep.failf("advance before the router drain: %v %s %s", err, resp.Code, resp.Error)
				break
			}
			if h, err := c.do(serve.Message{Op: "health"}); err != nil || h.Terminal >= h.Jobs {
				break
			}
		}
	}
	drain(c, rep)
	rep.DrainS = time.Since(t0).Seconds()
	c.close()
	rep.MakespanS = time.Since(loadStart).Seconds()
	if err := d.Wait(); err != nil {
		rep.failf("%v", err)
	}
	d2, c, err := recoverAndVerify(env, boot, rep)
	if err != nil {
		return err
	}
	defer d2.Kill()
	defer c.close()
	// The journal was drained, so this drain only shuts the daemon down.
	if resp, err := c.do(serve.Message{Op: "drain"}); err != nil || !resp.OK {
		rep.failf("drain of the restarted daemon: %v %s", err, resp.Error)
	}
	if err := d2.Wait(); err != nil {
		rep.failf("%v", err)
	}
	return nil
}

func readMetrics(c *conn, rep *Rep) {
	resp, err := c.do(serve.Message{Op: "metrics", Wall: true})
	if err != nil || !resp.OK {
		rep.failf("metrics: %v %s", err, resp.Error)
		return
	}
	rep.Metrics = ParseProm(resp.Report)
}

// drain sends the drain op and checks that it left no job unterminated.
func drain(c *conn, rep *Rep) {
	resp, err := c.do(serve.Message{Op: "drain"})
	switch {
	case err != nil:
		rep.failf("drain: %v", err)
	case !resp.OK || resp.Terminal != resp.Jobs:
		rep.failf("drain left %d of %d jobs unterminated: %s", resp.Jobs-resp.Terminal, resp.Jobs, resp.Error)
	}
	rep.FinalVirtualNow = resp.VirtualNow
}

// recoverAndVerify restarts the daemon on the journal the workload left
// behind, times it to its first OK resume, and checks the durability
// promise: the resume reports exactly the journal's live jobs, and every
// acked id still answers status. It returns the restarted daemon and a
// control connection to it.
func recoverAndVerify(env Env, boot Boot, rep *Rep) (Daemon, *conn, error) {
	live, err := env.NonTerminal(boot.JournalDir, boot.Shards)
	if err != nil {
		return nil, nil, fmt.Errorf("read journal %s: %w", boot.JournalDir, err)
	}
	d := env.Launch(boot)
	rep.Booted = append(rep.Booted, d)
	t0 := time.Now()
	if err := d.Start(); err != nil {
		return nil, nil, err
	}
	resume, err := awaitOK(boot.Socket, "resume")
	if err != nil {
		d.Kill()
		return nil, nil, err
	}
	rep.RecoverS = time.Since(t0).Seconds()
	if resume.Recovered != live {
		rep.failf("resume recovered %d jobs, journal holds %d live", resume.Recovered, live)
	}
	c, err := control(env, boot.Socket)
	if err != nil {
		d.Kill()
		return nil, nil, err
	}
	rep.Outcomes = make(map[string]int)
	for _, id := range rep.Load.AckedIDs {
		resp, err := c.do(serve.Message{Op: "status", ID: id})
		if err != nil || !resp.OK {
			rep.Unanswerable++
			continue
		}
		rep.Outcomes[resp.Status]++
	}
	return d, c, nil
}

// agedDeadlineSecs is the deadline of every aging submit: short enough
// that the paced clock expires each one moments after it is acked, so
// the live queue stays empty while the journal history grows.
const agedDeadlineSecs = 1

// agingConns is how many connections age the steady journal.
const agingConns = 32

// steady runs the long-lived-daemon workload: age the journal past its
// compaction threshold, hold an open loop against the paced engine,
// kill -9, restart on the same journal, verify, and drain the survivors.
func steady(env Env, boot Boot, rep *Rep, seed uint64) error {
	sz := env.Sizes
	boot.Pace = 60
	d, setup, err := startDaemon(env, boot, rep)
	if err != nil {
		return err
	}
	defer func() { d.Kill() }()
	// Aging is set-up, not load: it runs wide so that group commit spreads
	// each compaction over a batch and the journal ages in seconds.
	t0 := time.Now()
	aged := runLoad(loadCfg{
		socket: boot.Socket, codec: serve.CodecBinary, conns: agingConns,
		jobs: inputs.Aged(sz.AgedJobs, seed, agedDeadlineSecs), seed: seed,
	})
	if aged.Acked != sz.AgedJobs {
		rep.failf("aging: %d of %d acked (first error: %s)", aged.Acked, sz.AgedJobs, aged.FirstError)
	}
	rep.SetupS = setup + time.Since(t0).Seconds()

	windowStart := time.Now()
	rep.Load = runLoad(loadCfg{
		socket: boot.Socket, codec: serve.CodecJSON, conns: env.Conns,
		jobs: inputs.Jobs(Steady, sz.SteadyJobs),
		// A window holds few requests, so it reads twice as often.
		rate: sz.SteadyRate, statusEvery: sz.StatusEvery / 2, seed: seed, obs: env.Observe,
	})
	c, err := control(env, boot.Socket)
	if err != nil {
		return err
	}
	readMetrics(c, rep)
	c.close()
	if err := d.Kill(); err != nil {
		return err
	}
	if d, c, err = recoverAndVerify(env, boot, rep); err != nil {
		return err
	}
	defer c.close()
	// A sample of the aged ids must have survived the kill as well.
	for i := 0; i < len(aged.AckedIDs); i += 50 {
		if resp, err := c.do(serve.Message{Op: "status", ID: aged.AckedIDs[i]}); err != nil || !resp.OK {
			rep.Unanswerable++
		}
	}
	t0 = time.Now()
	drain(c, rep)
	rep.DrainS = time.Since(t0).Seconds()
	rep.MakespanS = time.Since(windowStart).Seconds()
	if err := d.Wait(); err != nil {
		rep.failf("%v", err)
	}
	return nil
}
