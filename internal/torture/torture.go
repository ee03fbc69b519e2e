// Package torture is the composed-fault proving ground behind
// cmd/rotary-chaos: one seeded run boots a durable arbiter over a
// fault-injectable disk, drives open-loop loadgen traffic at it, and —
// while the traffic is in flight — composes the fault families every
// prior chaos suite proved in isolation: disk-fault windows (ENOSPC /
// EIO bursts that must heal without a restart), process kills (journal
// replay must resurrect every acked job), and connection faults
// (mid-frame drops, stalled peers, hostile bytes — the server must
// shrug). After the storm it audits the wreckage with internal/invariants:
// every acked submit replays from the journal chain (losing an ack is the
// cardinal failure), the journal holds no duplicate id (req_id dedupe held
// through every fault window), server epochs strictly increase (no restart
// rewound identity), and the resume handshake, the obs counter and a
// read-only journal replay agree on the recovered-job count.
//
// Everything is deterministic per seed except wall-clock interleaving:
// the fault schedule, the fault windows, and the traffic identity all
// derive from Config.Seed, so a red seed reproduces locally.
package torture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/diskio"
	"rotary/internal/invariants"
	"rotary/internal/loadgen"
	"rotary/internal/obs"
	"rotary/internal/serve"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Config parameterizes one torture run.
type Config struct {
	// Seed drives the fault schedule, fault windows, and traffic naming.
	Seed uint64
	// Dir is the durable state directory (journal chain + checkpoints).
	Dir string
	// Socket is the Unix socket the tortured server listens on.
	Socket string
	// Rounds is how many fault rounds are composed, each under live
	// traffic. Defaults to 4.
	Rounds int
	// Ops is the open-loop submits per round. Defaults to 120.
	Ops int
	// Rate is the open-loop arrival rate per round (submits/sec).
	// Defaults to 300.
	Rate float64
	// Conns is the loadgen connection pool per round. Defaults to 4.
	Conns int
	// SF is the TPC-H scale factor for the server's catalog. Defaults to
	// 0.005 — the smallest dataset the statements resolve against.
	SF float64
	// ArtifactDir, when set, receives the invariant report and the
	// journal segment chain whenever a run fails — the offline-debugging
	// bundle CI uploads.
	ArtifactDir string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// RoundReport is one fault round's outcome.
type RoundReport struct {
	Round    int    `json:"round"`
	Fault    string `json:"fault"`
	WindowMs int    `json:"window_ms,omitempty"`
	Acked    int64  `json:"acked"`
	Degraded int64  `json:"degraded"`
	Refused  int64  `json:"refused"`
	Errors   int64  `json:"errors"`
	Epoch    int    `json:"epoch"`
}

// Report is the audited outcome of one seeded torture run.
type Report struct {
	Seed   uint64        `json:"seed"`
	Rounds []RoundReport `json:"rounds"`

	Acked      int   `json:"acked"`
	Degraded   int64 `json:"degraded"`
	Kills      int   `json:"kills"`
	DiskFaults int   `json:"disk_faults"`
	ConnFaults int   `json:"conn_faults"`
	Heals      int   `json:"heals"`

	Epochs          []int `json:"epochs"`
	JournalJobs     int   `json:"journal_jobs"`
	JournalLive     int   `json:"journal_live"`
	ResumeRecovered int   `json:"resume_recovered"`
	ObsRecovered    int   `json:"obs_recovered"`

	AckedLost    []string `json:"acked_lost,omitempty"`
	DuplicateIDs []string `json:"duplicate_ids,omitempty"`
	Failures     []string `json:"failures,omitempty"`
	OK           bool     `json:"ok"`
}

// fail records one invariant violation.
func (r *Report) fail(format string, args ...any) {
	r.OK = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// harness owns the tortured server's lifecycle: the faulty disk layer
// persists across restarts (a real disk does not get replaced when the
// process does), everything else is rebuilt per incarnation exactly
// like a supervised shard restart.
type harness struct {
	cfg    Config
	ds     *tpch.Dataset
	faulty *diskio.Faulty
	jl     *serve.Journal
	srv    *serve.Server
	reg    *obs.Registry
	done   chan struct{}
}

func (h *harness) start() error {
	jl, store, err := serve.OpenDurableIO(h.cfg.Dir, h.faulty)
	if err != nil {
		return fmt.Errorf("torture: open durable state: %w", err)
	}
	reg := obs.NewRegistry()
	cat := tpch.NewCatalog(h.ds, h.cfg.Seed)
	ecfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	ecfg.Obs = reg
	ecfg.Store = store
	exec := core.NewAQPExecutor(ecfg, baselines.RoundRobinAQP{}, nil)
	srv, err := serve.New(serve.Config{
		Socket:        h.cfg.Socket,
		Pace:          0, // clock frozen: round outcomes are fault-driven, not time-driven
		HealProbeSecs: 0.02,
		// The torture server never gives up probing: supervised
		// escalation past the heal budget is proven separately (the shard
		// suite), and here a capped prober would turn a long fault window
		// into a permanent wedge instead of a heal we can assert on.
		MaxHealFailures: 1 << 30,
		Obs:             reg,
		Journal:         jl,
	}, exec, cat)
	if err != nil {
		jl.Close()
		store.Close()
		return fmt.Errorf("torture: start server: %w", err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve()
		close(done)
	}()
	h.jl, h.srv, h.reg, h.done = jl, srv, reg, done
	return nil
}

// kill tears the incarnation down the unclean way and waits for the
// serve loop to exit (Kill releases the journal handle, so the next
// start reopens cleanly — same contract as the shard supervisor).
func (h *harness) kill() {
	h.srv.Kill()
	<-h.done
}

// Run executes one seeded torture run and audits the invariants.
func Run(cfg Config) (*Report, error) {
	if cfg.Dir == "" || cfg.Socket == "" {
		return nil, fmt.Errorf("torture: Dir and Socket are required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 120
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 300
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.SF <= 0 {
		cfg.SF = 0.005
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := sim.NewRand(cfg.Seed ^ 0x7047)
	rep := &Report{Seed: cfg.Seed, OK: true}

	h := &harness{
		cfg:    cfg,
		ds:     tpch.Generate(cfg.SF, cfg.Seed),
		faulty: diskio.NewFaulty(nil, diskio.FaultConfig{Seed: cfg.Seed}),
	}
	if err := h.start(); err != nil {
		return nil, err
	}
	defer func() {
		if h.srv != nil {
			h.kill()
		}
	}()

	ctl, err := serve.NewClient(serve.ClientConfig{
		Socket:         cfg.Socket,
		Attempts:       50,
		Backoff:        20 * time.Millisecond,
		MaxBackoff:     200 * time.Millisecond,
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("torture: control client: %w", err)
	}
	defer ctl.Close()

	resume, err := ctl.Do(serve.Message{Op: "resume"})
	if err != nil {
		return nil, fmt.Errorf("torture: initial resume: %w", err)
	}
	rep.Epochs = append(rep.Epochs, resume.ServerEpoch)

	// acked is the promise ledger: every id the server acked, from
	// loadgen traffic and the harness's own heal probes alike.
	var acked []string

	// The fault family per round cycles a seeded permutation of all
	// three, so any run of >= 3 rounds provably composes disk faults,
	// kills, AND connection faults — only the order and the windows vary
	// by seed. Pure rng selection could leave a family uncovered.
	families := []int{0, 1, 2}
	for i := len(families) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		families[i], families[j] = families[j], families[i]
	}

	for round := 0; round < cfg.Rounds; round++ {
		rr := RoundReport{Round: round}

		resCh := make(chan *loadgen.Result, 1)
		errCh := make(chan error, 1)
		go func() {
			res, err := loadgen.Run(loadgen.Config{
				Addr:        cfg.Socket,
				Conns:       cfg.Conns,
				Rate:        cfg.Rate,
				Ops:         cfg.Ops,
				StatusEvery: 7,
				IDPrefix:    fmt.Sprintf("t%d-r%d", cfg.Seed, round),
				Timeout:     10 * time.Second,
				Attempts:    40,
				RetryHinted: true,
				TrackAcked:  true,
			})
			if err != nil {
				errCh <- err
				return
			}
			resCh <- res
		}()

		// Let the traffic establish before the storm hits it.
		time.Sleep(60 * time.Millisecond)

		switch families[round%len(families)] {
		case 0: // disk-fault window: must heal in place, no restart
			errno := syscall.ENOSPC
			rr.Fault = "disk-enospc"
			if rng.IntN(2) == 1 {
				errno = syscall.EIO
				rr.Fault = "disk-eio"
			}
			rr.WindowMs = 80 + rng.IntN(160)
			rep.DiskFaults++
			epochBefore := mustEpoch(ctl, rep)
			logf("round %d: %s window %dms", round, rr.Fault, rr.WindowMs)
			h.faulty.ForceFail(errno)
			time.Sleep(time.Duration(rr.WindowMs) * time.Millisecond)
			h.faulty.Clear()
			if !waitHealthy(ctl, 15*time.Second) {
				rep.fail("round %d: journal never healed after the %s window cleared", round, rr.Fault)
				break
			}
			// The heal-without-restart proof: a durable ack on the SAME
			// incarnation, post-heal.
			probeID := fmt.Sprintf("heal-probe-%d-r%d", cfg.Seed, round)
			pr, err := ctl.Do(serve.Message{Op: "submit", ID: probeID,
				ReqID: "req-" + probeID, Statement: tortureStatement})
			if err != nil || !pr.OK {
				rep.fail("round %d: post-heal durable submit not acked: err=%v resp=%+v", round, err, pr)
				break
			}
			acked = append(acked, probeID)
			if got := mustEpoch(ctl, rep); got != epochBefore {
				rep.fail("round %d: epoch moved %d -> %d across a heal — that was a restart, not a heal",
					round, epochBefore, got)
			}

		case 1: // process kill: journal replay must resurrect the acked set
			rr.Fault = "kill"
			rep.Kills++
			logf("round %d: kill -9", round)
			h.kill()
			// A kill can land mid-fault-window state; make sure the disk is
			// sane before the incarnation that must replay from it boots.
			h.faulty.Clear()
			if err := h.start(); err != nil {
				return nil, fmt.Errorf("torture: round %d restart: %w", round, err)
			}

		case 2: // connection faults: rogue peers, server must shrug
			rr.Fault = "conn"
			rep.ConnFaults++
			logf("round %d: rogue connections", round)
			injectConnFaults(cfg.Socket, rng)
			if hr, err := ctl.Do(serve.Message{Op: "health"}); err != nil || !hr.OK {
				rep.fail("round %d: health after rogue connections: err=%v resp=%+v", round, err, hr)
			}
		}

		var res *loadgen.Result
		select {
		case res = <-resCh:
		case err := <-errCh:
			return nil, fmt.Errorf("torture: round %d loadgen: %w", round, err)
		case <-time.After(2 * time.Minute):
			return nil, fmt.Errorf("torture: round %d loadgen wedged", round)
		}
		rr.Acked, rr.Degraded, rr.Refused, rr.Errors = res.Acked, res.Degraded, res.Refused, res.Errors
		rep.Degraded += res.Degraded
		for _, j := range res.AckedJobs {
			acked = append(acked, j.ID)
		}
		rr.Epoch = mustEpoch(ctl, rep)
		rep.Rounds = append(rep.Rounds, rr)
		if len(rep.Epochs) == 0 || rr.Epoch != rep.Epochs[len(rep.Epochs)-1] {
			rep.Epochs = append(rep.Epochs, rr.Epoch)
		}
		logf("round %d done: %s — acked %d, degraded %d, refused %d, errors %d, epoch %d",
			round, rr.Fault, rr.Acked, rr.Degraded, rr.Refused, rr.Errors, rr.Epoch)
	}
	if dups := invariants.Duplicates(acked); len(dups) > 0 {
		rep.fail("%d jobs acked twice: %v", len(dups), dups)
	}
	acked = slices.Compact(slices.Sorted(slices.Values(acked)))
	rep.Acked = len(acked)

	// Quiesce: faults cleared, latch lifted, then one final unclean kill
	// so the audit reads the journal exactly as a crash left it.
	h.faulty.Clear()
	if !waitHealthy(ctl, 15*time.Second) {
		rep.fail("final quiesce: server never reported healthy")
	}
	h.kill()
	h.srv = nil

	// Independent audit: replay the journal chain read-only — no
	// truncation, no epoch bump — and compare three ledgers.
	replay, err := serve.ReplayJournal(cfg.Dir)
	if err != nil {
		rep.fail("read-only journal replay: %v", err)
	} else {
		journalIDs := make([]string, len(replay.Jobs))
		for i, j := range replay.Jobs {
			journalIDs[i] = j.ID
		}
		if rep.DuplicateIDs = invariants.Duplicates(journalIDs); len(rep.DuplicateIDs) > 0 {
			rep.fail("journal registry holds %d duplicate job ids", len(rep.DuplicateIDs))
		}
		if rep.AckedLost = invariants.Lost(acked, journalIDs); len(rep.AckedLost) > 0 {
			rep.fail("%d acked jobs missing from the journal (acked-lost)", len(rep.AckedLost))
		}
		rep.JournalJobs = len(replay.Jobs)
		rep.JournalLive = len(replay.NonTerminal())
		rep.Heals = int(replay.Heals)
	}
	if rep.DiskFaults > 0 && rep.Heals == 0 {
		rep.fail("%d disk-fault windows but zero recovery barriers journaled", rep.DiskFaults)
	}

	// Final incarnation: the three-way recovered-count agreement.
	if err := h.start(); err != nil {
		return nil, fmt.Errorf("torture: final restart: %w", err)
	}
	fin, err := ctl.Do(serve.Message{Op: "resume"})
	if err != nil {
		return nil, fmt.Errorf("torture: final resume: %w", err)
	}
	rep.ResumeRecovered = fin.Recovered
	rep.Epochs = append(rep.Epochs, fin.ServerEpoch)
	if err := invariants.EpochsIncrease(rep.Epochs); err != nil {
		rep.fail("%v", err)
	}
	const recovered = "rotary_serve_recovered_jobs_total"
	obsRecovered, _ := h.reg.Value(recovered)
	rep.ObsRecovered = int(obsRecovered)
	if rep.ResumeRecovered != rep.JournalLive {
		rep.fail("resume recovered %d jobs, read-only replay says %d live", rep.ResumeRecovered, rep.JournalLive)
	}
	if err := invariants.RegistryAgrees(h.reg, map[string]int{recovered: rep.ResumeRecovered}); err != nil {
		rep.fail("obs counter against the resume handshake: %v", err)
	}
	// Spot-check survivors: the first 16 acked ids, in sorted order,
	// answer status by id.
	for _, id := range acked[:min(16, len(acked))] {
		if st, err := ctl.Do(serve.Message{Op: "status", ID: id}); err != nil || !st.OK {
			rep.fail("acked job %s unanswerable after final restart: err=%v resp=%+v", id, err, st)
		}
	}

	logf("seed %d: %d acked, %d heals, %d kills, %d conn faults, epochs %v — ok=%v",
		cfg.Seed, rep.Acked, rep.Heals, rep.Kills, rep.ConnFaults, rep.Epochs, rep.OK)
	if !rep.OK && cfg.ArtifactDir != "" {
		dumpArtifacts(cfg, rep)
	}
	return rep, nil
}

// tortureStatement is the canonical completion-criteria statement every
// torture submit carries.
const tortureStatement = "q1 ACC MIN 60% WITHIN 900 SECONDS"

// mustEpoch reads the current server epoch through the control client;
// a failed read records an invariant failure and returns -1.
func mustEpoch(ctl *serve.Client, rep *Report) int {
	r, err := ctl.Do(serve.Message{Op: "resume"})
	if err != nil || !r.OK {
		rep.fail("resume for epoch read: err=%v resp=%+v", err, r)
		return -1
	}
	return r.ServerEpoch
}

// waitHealthy polls the health op until the server reports "healthy".
// Each probe also drives the server's heal prober (every handled batch
// attempts a heal when due), so polling is itself the recovery engine
// on an unpaced server.
func waitHealthy(ctl *serve.Client, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if r, err := ctl.Do(serve.Message{Op: "health"}); err == nil && r.Status == "healthy" {
			return true
		}
		time.Sleep(25 * time.Millisecond)
	}
	return false
}

// dumpArtifacts writes the invariant report and copies the journal
// segment chain into the artifact directory for offline debugging.
func dumpArtifacts(cfg Config, rep *Report) {
	dir := filepath.Join(cfg.ArtifactDir, fmt.Sprintf("seed-%d", cfg.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "invariant-report.json"), append(b, '\n'), 0o644)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "serve.journal") {
			continue
		}
		if data, err := os.ReadFile(filepath.Join(cfg.Dir, e.Name())); err == nil {
			os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
	}
}
