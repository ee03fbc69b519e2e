package core_test

import (
	"fmt"
	"strings"
	"testing"

	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/faults"
	"rotary/internal/invariants"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Chaos suite: full workloads under deterministic fault injection must
// terminate, and — when every injected fault is recoverable — finish on
// results bit-identical to the fault-free run. The argument: per-epoch
// data consumption is fixed per job (epochBatches × batchRows), results
// are thread-width-invariant, and every stop rule is a function of the
// per-epoch observation sequence, which crash rollback and from-scratch
// replay reproduce exactly. Run under -race in CI at three fixed seeds.

var chaosSeeds = []uint64{1, 7, 42}

// mustGenDLT generates a DLT workload, failing the test on an invalid
// criteria draw (impossible for the default workload parameters).
func mustGenDLT(t *testing.T, jobs int, seed uint64) []workload.DLTSpec {
	t.Helper()
	specs, err := workload.GenerateDLT(workload.DefaultDLTWorkload(jobs, seed))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

type aqpOutcome struct {
	status  core.JobStatus
	epochs  int
	stopAcc float64
	groups  map[string][]float64
}

func aqpOutcomes(jobs []*core.AQPJob) map[string]aqpOutcome {
	out := make(map[string]aqpOutcome, len(jobs))
	for _, j := range jobs {
		out[j.ID()] = aqpOutcome{
			status:  j.Status(),
			epochs:  j.Epochs(),
			stopAcc: j.StopAccuracy(),
			groups:  j.Query().Snapshot().Groups,
		}
	}
	return out
}

// chaosAQPJobs builds a contended mixed-query workload with deadlines far
// beyond any recovery delay, so deadline expiry never turns a timing
// difference into a result difference.
func chaosAQPJobs(t *testing.T, cat *tpch.Catalog) []*core.AQPJob {
	t.Helper()
	var jobs []*core.AQPJob
	for _, q := range []struct {
		id, query string
		acc       float64
	}{
		{"c1", "q1", 0.95}, {"c2", "q6", 0.95}, {"c3", "q12", 0.9},
		{"c4", "q14", 0.9}, {"c5", "q3", 0.9}, {"c6", "q19", 0.9},
	} {
		jobs = append(jobs, buildJob(t, cat, q.id, q.query, q.acc, 1e7))
	}
	return jobs
}

func runChaosAQP(t *testing.T, cat *tpch.Catalog, sched core.AQPScheduler, cfg faults.Config, arm bool) (*core.AQPExecutor, *core.CheckpointStore) {
	t.Helper()
	store, err := core.NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultAQPExecConfig(1e6)
	ecfg.Threads = 2 // contention: jobs continually defer and resume
	ecfg.Store = store
	if arm {
		in := faults.New(cfg)
		store.SetFaults(in)
		ecfg.Faults = in
	}
	exec := core.NewAQPExecutor(ecfg, sched, nil)
	for i, j := range chaosAQPJobs(t, cat) {
		exec.Submit(j, sim.Time(float64(i)*5))
	}
	if err := exec.Run(); err != nil {
		t.Fatalf("chaos AQP run: %v", err)
	}
	return exec, store
}

// With only recoverable faults (crashes, transient I/O, slow storage — no
// corruption), the final aggregates, statuses, and epoch counts must be
// bit-identical to the fault-free run.
func TestChaosAQPRecoverableFaultsBitIdentical(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	ref, _ := runChaosAQP(t, cat, fifoAQP{reserve: true}, faults.Config{}, false)
	want := aqpOutcomes(ref.Jobs())
	for _, seed := range chaosSeeds {
		exec, _ := runChaosAQP(t, cat, fifoAQP{reserve: true}, faults.Recoverable(seed, 0.12), true)
		rec := exec.Recovery()
		if rec.Crashes == 0 {
			t.Fatalf("seed %d: no crashes injected — the run proves nothing", seed)
		}
		if rec.WastedWorkSecs <= 0 {
			t.Errorf("seed %d: %d crashes but no wasted work recorded", seed, rec.Crashes)
		}
		if rec.Recovered == 0 {
			t.Errorf("seed %d: no crash ever recovered", seed)
		}
		for _, j := range exec.Jobs() {
			w := want[j.ID()]
			if j.Status() != w.status || j.Epochs() != w.epochs || j.StopAccuracy() != w.stopAcc {
				t.Errorf("seed %d: job %s diverged: %v/%d/%v, want %v/%d/%v",
					seed, j.ID(), j.Status(), j.Epochs(), j.StopAccuracy(),
					w.status, w.epochs, w.stopAcc)
			}
			if !snapshotsEqual(j.Query().Snapshot().Groups, w.groups) {
				t.Errorf("seed %d: job %s final aggregates diverged from fault-free run", seed, j.ID())
			}
		}
	}
}

// The same fault schedule must replay bit-for-bit: two runs from one seed
// are indistinguishable, including the recovery counters.
func TestChaosAQPSameSeedReplaysExactly(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	a, _ := runChaosAQP(t, cat, fifoAQP{reserve: true}, faults.Uniform(7, 0.12), true)
	b, _ := runChaosAQP(t, cat, fifoAQP{reserve: true}, faults.Uniform(7, 0.12), true)
	if a.Recovery() != b.Recovery() {
		t.Fatalf("recovery counters diverged across identical seeds: %+v vs %+v", a.Recovery(), b.Recovery())
	}
	if a.Engine().Now() != b.Engine().Now() {
		t.Fatalf("makespans diverged: %v vs %v", a.Engine().Now(), b.Engine().Now())
	}
	wa, wb := aqpOutcomes(a.Jobs()), aqpOutcomes(b.Jobs())
	for id, oa := range wa {
		ob := wb[id]
		if oa.status != ob.status || oa.epochs != ob.epochs || oa.stopAcc != ob.stopAcc {
			t.Errorf("job %s diverged across identical seeds", id)
		}
	}
}

// The full adaptive Rotary-AQP policy under the complete fault mix —
// including corruption — must still terminate cleanly, with corrupted
// checkpoints caught by the checksum and restarted from scratch.
func TestChaosRotaryAQPFullMixTerminates(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	repo := estimate.NewRepository()
	if err := workload.SeedAQPHistory(repo, cat, 2000); err != nil {
		t.Fatal(err)
	}
	corruptionsDealt, corruptionsDetected := 0, 0
	for _, seed := range chaosSeeds {
		// Disk-only store: every resume decodes the on-disk frame, so a
		// corrupted write that is ever read back must be caught.
		store, err := core.NewCheckpointStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		store.SetObs(reg)
		in := faults.New(faults.Uniform(seed, 0.15))
		store.SetFaults(in)
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 4
		cfg.Store = store
		cfg.Faults = in
		exec := core.NewAQPExecutor(cfg, core.NewRotaryAQP(estimate.NewAccuracyProgress(repo)), repo)
		for i, j := range chaosAQPJobs(t, cat) {
			exec.Submit(j, sim.Time(float64(i)*5))
		}
		if err := exec.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, j := range exec.Jobs() {
			if !j.Status().Terminal() {
				t.Errorf("seed %d: job %s not terminal", seed, j.ID())
			}
		}
		corruptionsDealt += in.Stats().Corruptions
		corruptionsDetected += store.Health().CorruptDetected
		if got, want := store.Health().SlowIOs, in.Stats().SlowIOs; got != want {
			t.Errorf("seed %d: store counted %d slow I/Os, injector dealt %d", seed, got, want)
		}
		if err := invariants.RegistryAgrees(reg, map[string]int{
			"rotary_ckpt_slow_ios_total": store.Health().SlowIOs,
		}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	// A corrupted write that is overwritten before any read goes unseen
	// (harmless); but across three seeds some corrupt frame must have been
	// read back, detected by the checksum, and recovered from.
	if corruptionsDealt == 0 {
		t.Fatal("no corruption injected across any seed — the test proves nothing")
	}
	if corruptionsDetected == 0 {
		t.Fatal("corrupt frames were persisted but none was ever detected at load")
	}
}

type dltOutcome struct {
	status      core.JobStatus
	epochs      int
	accuracy    float64
	convergedAt int
}

func dltOutcomes(jobs []*core.DLTJob) map[string]dltOutcome {
	out := make(map[string]dltOutcome, len(jobs))
	for _, j := range jobs {
		out[j.ID()] = dltOutcome{
			status:      j.Status(),
			epochs:      j.Epochs(),
			accuracy:    j.Accuracy(),
			convergedAt: j.ConvergedAtEpoch(),
		}
	}
	return out
}

func runChaosDLT(t *testing.T, specs []workload.DLTSpec, cfg faults.Config, arm bool) *core.DLTExecutor {
	t.Helper()
	repo := estimate.NewRepository()
	if err := workload.SeedDLTHistory(repo, 40, 30, 3); err != nil {
		t.Fatal(err)
	}
	tee := estimate.NewTEE(repo)
	tme := estimate.NewTME(repo)
	store, err := core.NewCheckpointStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultDLTExecConfig()
	ecfg.Store = store
	if arm {
		in := faults.New(cfg)
		store.SetFaults(in)
		ecfg.Faults = in
	}
	exec := core.NewDLTExecutor(ecfg, core.NewRotaryDLT(0.5, tee, tme), repo)
	for _, spec := range specs {
		j, err := workload.BuildDLTJob(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.ID, err)
		}
		exec.Submit(j, 0)
	}
	if err := exec.Run(); err != nil {
		t.Fatalf("chaos DLT run: %v", err)
	}
	return exec
}

// DLT stop rules are epoch-indexed and the accuracy curve is a pure
// function of the epoch count, so recovery by rollback or from-scratch
// replay must land every job on exactly the fault-free outcome — even
// under the full Rotary-DLT policy, whose placement order may differ.
func TestChaosDLTRecoverableFaultsBitIdentical(t *testing.T) {
	specs := mustGenDLT(t, 8, 7)
	ref := runChaosDLT(t, specs, faults.Config{}, false)
	want := dltOutcomes(ref.Jobs())
	for _, seed := range chaosSeeds {
		exec := runChaosDLT(t, specs, faults.Recoverable(seed, 0.12), true)
		rec := exec.Recovery()
		if rec.Crashes == 0 {
			t.Fatalf("seed %d: no crashes injected — the run proves nothing", seed)
		}
		for _, j := range exec.Jobs() {
			w := want[j.ID()]
			if j.Status() != w.status || j.Epochs() != w.epochs ||
				j.Accuracy() != w.accuracy || j.ConvergedAtEpoch() != w.convergedAt {
				t.Errorf("seed %d: job %s diverged: %v/%d/%v/%d, want %v/%d/%v/%d",
					seed, j.ID(), j.Status(), j.Epochs(), j.Accuracy(), j.ConvergedAtEpoch(),
					w.status, w.epochs, w.accuracy, w.convergedAt)
			}
		}
	}
}

// The unified AQP+DLT system under the full fault mix on both substrates
// must terminate with every job terminal.
func TestChaosUnifiedFullMixTerminates(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	dltSpecs := mustGenDLT(t, 4, 7)
	for _, seed := range chaosSeeds {
		in := faults.New(faults.Uniform(seed, 0.1))
		aqpStore, err := core.NewCheckpointStore(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		dltStore, err := core.NewCheckpointStore(t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		aqpStore.SetFaults(in)
		dltStore.SetFaults(in)
		cfg := core.UnifiedExecConfig{
			AQP:       core.DefaultAQPExecConfig(1e6),
			DLT:       core.DefaultDLTExecConfig(),
			Threshold: 0.5,
		}
		cfg.AQP.Threads = 4
		cfg.AQP.Store = aqpStore
		cfg.AQP.Faults = in
		cfg.DLT.Store = dltStore
		cfg.DLT.Faults = in
		exec := core.NewUnifiedExecutor(cfg, nil)
		for i, j := range chaosAQPJobs(t, cat) {
			exec.SubmitAQP(j, sim.Time(float64(i)*5))
		}
		for _, spec := range dltSpecs {
			j, err := workload.BuildDLTJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			exec.SubmitDLT(j, 0)
		}
		if err := exec.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rec := exec.Recovery()
		if rec.Recovered > rec.Crashes {
			t.Errorf("seed %d: recovered %d of %d crashes — counter inconsistency", seed, rec.Recovered, rec.Crashes)
		}
		statuses := map[string]string{}
		for _, j := range exec.AQPJobs() {
			statuses["aqp/"+j.ID()] = j.Status().String()
		}
		for _, j := range exec.DLTJobs() {
			statuses["dlt/"+j.ID()] = j.Status().String()
		}
		if err := invariants.AllTerminal(statuses); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestChaosObsCountersAgree re-runs the recoverable-fault chaos mix with
// a private metrics registry at every chaos seed and demands the always-on
// obs counters agree exactly with the trace, the executor's RecoveryStats
// and the store's own ledger — the accounting paths must never drift.
func TestChaosObsCountersAgree(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	for _, seed := range chaosSeeds {
		reg := obs.NewRegistry()
		store, err := core.NewCheckpointStore(t.TempDir(), 2)
		if err != nil {
			t.Fatal(err)
		}
		store.SetObs(reg)
		ecfg := core.DefaultAQPExecConfig(1e6)
		ecfg.Threads = 2
		ecfg.Store = store
		ecfg.Obs = reg
		ecfg.Tracer = &core.Tracer{}
		in := faults.New(faults.Recoverable(seed, 0.08))
		store.SetFaults(in)
		ecfg.Faults = in
		exec := core.NewAQPExecutor(ecfg, core.NewRotaryAQP(nil), nil)
		for i, j := range chaosAQPJobs(t, cat) {
			exec.Submit(j, sim.Time(float64(i)*5))
		}
		if err := exec.Run(); err != nil {
			t.Fatalf("seed %d: chaos AQP run: %v", seed, err)
		}

		rec := exec.Recovery()
		if rec.Crashes == 0 {
			t.Fatalf("seed %d: fault plan injected no crashes; agreement test is vacuous", seed)
		}
		checkLedgersAgree(t, fmt.Sprintf("chaos/%d", seed), exec, reg, len(exec.Jobs()))
		health := store.Health()
		writes, memHits, diskHits := health.Writes, health.MemHits, health.DiskHits
		if err := invariants.RegistryAgrees(reg, map[string]int{
			"rotary_aqp_crashes_total":             rec.Crashes,
			"rotary_aqp_rollbacks_total":           rec.Rollbacks,
			"rotary_aqp_scratch_restarts_total":    rec.ScratchRestarts,
			"rotary_aqp_recovered_total":           rec.Recovered,
			"rotary_aqp_arrivals_total":            len(exec.Jobs()),
			"rotary_ckpt_writes_total":             writes,
			"rotary_ckpt_mem_hits_total":           memHits,
			"rotary_ckpt_disk_hits_total":          diskHits,
			"rotary_ckpt_retries_total":            health.Retries,
			"rotary_ckpt_transient_failures_total": health.TransientFailures,
			"rotary_ckpt_corrupt_detected_total":   health.CorruptDetected,
			"rotary_ckpt_swept_total":              health.Swept,
		}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Epoch-duration and frame-size histograms must have seen real traffic.
		if v, ok := reg.Value("rotary_aqp_epochs_total"); !ok || v == 0 {
			t.Errorf("seed %d: no epochs counted: %v %v", seed, v, ok)
		}
		if writes > 0 {
			text := reg.RenderText(false)
			if !strings.Contains(text, "rotary_ckpt_frame_bytes_count") {
				t.Errorf("seed %d: frame-size histogram missing despite %d writes:\n%s", seed, writes, text)
			}
		}
	}
}
