// Command benchmark is Rotary's end-to-end benchmark with a per-layer
// budget. It builds cmd/rotary-serve, drives the real binary over the
// wire protocol through the workloads BENCHMARK.json lists (ingest,
// steady, replay) or, when asked by name, sharded, and prints the
// end-to-end metrics BENCHMARK.json names; with -trace 1
// it runs a traced in-process twin of the same workload and prints the
// per-layer metrics instead. README.md explains the workloads, the
// metrics, and which layer is expected to move which number.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -workload ingest -seed 1 -seconds 40 -trace 0
//	bash benchmark/run.sh -seed 1                       # everything, both passes
//	bash benchmark/run.sh -seed 1 -runs 10 -out a.json  # ten seeds, for -compare
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rotary/benchmark/driver"
	"rotary/benchmark/inputs"
	"rotary/benchmark/probes"
)

// buildDir holds everything the benchmark writes: the daemon binary, the
// scratch journals, the traces. It is relative so that socket paths stay
// short, and .gitignore names it.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: ingest, steady, replay, sharded, or all that BENCHMARK.json lists")
		seed     = fs.Uint64("seed", 1, "seed of the status targets, the open loop's arrival gaps and the sample that ages steady's journal")
		seconds  = fs.Float64("seconds", 0, "how long one run measures (0 = run_seconds of BENCHMARK.json)")
		trace    = fs.String("trace", "both", "0 = end-to-end metrics from the subprocess, 1 = per-layer metrics from the traced twin, both")
		quick    = fs.Bool("quick", false, "tiny sizes: a smoke test of the harness, not a measurement")
		runs     = fs.Int("runs", 1, "repeat the end-to-end pass this many times, on seeds seed, seed+1, …")
		out      = fs.String("out", "", "write every run's end-to-end values to this file, for -compare")
		cmp      = fs.Bool("compare", false, "compare two -out files given as arguments: apply each metric's bound, print worse / same / unresolved")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
			return 2
		}
		base, err := readReport(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		cand, err := readReport(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if compare(stdout, spec, base, cand) > 0 {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	b := &bench{seconds: *seconds, sizes: driver.FullSizes, log: stdout}
	if *quick {
		b.sizes = driver.QuickSizes
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer b.cleanup()

	report := &Report{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: *seconds, Runs: map[string]map[string][]float64{}}
	for i := 0; i < *runs; i++ {
		report.Seeds = append(report.Seeds, *seed+uint64(i))
	}
	ok := true
	var last Result
	for _, name := range names {
		measured := map[string]float64{}
		var specs []MetricSpec
		last = Result{Correct: true}
		if *trace != "1" {
			specs = append(specs, spec.EndToEnd...)
			report.Runs[name] = map[string][]float64{}
			for _, s := range report.Seeds {
				res, err := b.endToEnd(name, s)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				last.merge(res)
				for k, v := range res.values {
					measured[k] = v // the last seed's run is the one printed
					report.Runs[name][k] = append(report.Runs[name][k], v)
				}
			}
		}
		if *trace != "0" {
			specs = append(specs, spec.PerLayer...)
			res, err := b.layers(name, *seed)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			last.merge(res)
			for k, v := range res.values {
				measured[k] = v
			}
		}
		last.Metrics, err = render(specs, measured)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printMetrics(stdout, name, specs, last.Metrics)
		ok = ok && last.Correct && last.Failed == 0
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(report, "", " ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(names) == 1 {
		// The contract's last line: one JSON object for the one workload.
		line, _ := json.Marshal(last)
		fmt.Fprintln(stdout, string(line))
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// pass is what one pass over one workload produced.
type pass struct {
	values    map[string]float64
	attempted int
	failed    int
	correct   bool
}

func (r *Result) merge(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Correct = r.Correct && p.correct
}

func printMetrics(w io.Writer, workload string, specs []MetricSpec, values map[string]Value) {
	for _, m := range specs {
		fmt.Fprintf(w, "%-8s %-36s %14.4f %s\n", workload, m.Name, values[m.Name].Value, m.Unit)
	}
}

// bench is one invocation's shared state.
type bench struct {
	seconds float64
	sizes   driver.Sizes
	log     io.Writer
	// bin is the rotary-serve binary built for this checkout; work is the
	// invocation's scratch directory.
	bin  string
	work string
	// keep leaves the scratch behind once a rep's checks have failed.
	keep bool
}

// prepare builds the daemon from the checkout's source and creates the
// scratch directory. Build time is spent here, before any clock starts.
func (b *bench) prepare() error {
	if _, err := os.Stat(filepath.Join("cmd", "rotary-serve")); err != nil {
		return fmt.Errorf("no cmd/rotary-serve under the working directory: run from the repository root")
	}
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	b.bin = filepath.Join(bin, "rotary-serve")
	t0 := time.Now()
	build := exec.Command("go", "build", "-o", b.bin, "./cmd/rotary-serve")
	if outb, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/rotary-serve: %v\n%s", err, outb)
	}
	fmt.Fprintf(b.log, "built %s in %.1fs (excluded from every metric)\n", b.bin, time.Since(t0).Seconds())
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(buildDir, "work"), "run-")
	if err != nil {
		return err
	}
	b.work = work
	return nil
}

func (b *bench) cleanup() {
	if b.keep {
		fmt.Fprintf(b.log, "scratch kept for inspection: %s\n", b.work)
		return
	}
	os.RemoveAll(b.work)
}

// conns is the generator's connection count: two closed-loop clients, or
// one on a single-CPU host, so the generator never outnumbers the cores
// it shares with the daemon.
func conns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func (b *bench) env(dir string, launch driver.Launcher, nconns int, obs driver.Observer) driver.Env {
	return driver.Env{
		Launch:      launch,
		Dir:         filepath.Join(b.work, dir),
		Conns:       nconns,
		Sizes:       b.sizes,
		NonTerminal: probes.NonTerminal,
		Observe:     obs,
	}
}

func (b *bench) proc(boot driver.Boot) driver.Daemon { return driver.NewProc(b.bin, boot) }

// runRep runs one rep and discards its scratch unless a check failed.
func (b *bench) runRep(workload string, env driver.Env, seed uint64) (*driver.Rep, error) {
	rep, err := driver.RunRep(workload, env, seed)
	if err != nil {
		b.keep = true
		return nil, err
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(b.log, "%s: CHECK FAILED: %s\n", workload, f)
	}
	if rep.Failed() > 0 {
		b.keep = true
		fmt.Fprintf(b.log, "%s: %d refused, %d errors, %d acked ids unanswerable after restart (first error: %s)\n",
			workload, rep.Load.Refused, rep.Load.Errors, rep.Unanswerable, rep.Load.FirstError)
	}
	return rep, nil
}

// attempted counts the operations whose outcome a rep checked.
func attempted(rep *driver.Rep) int {
	return rep.Load.Submitted + rep.Load.StatusSent + len(rep.Load.AckedIDs)
}

// endToEnd is the untraced pass: reps of the workload against the real
// binary for the run's seconds of wall clock, each metric the median over
// reps. The clock covers everything a rep does, its output checks too,
// and a rep is not started when one as long as the average so far would
// overrun.
func (b *bench) endToEnd(workload string, seed uint64) (*pass, error) {
	var reps []*driver.Rep
	p := &pass{correct: true}
	start := time.Now()
	for i := 0; ; i++ {
		env := b.env(fmt.Sprintf("%s-%d-e%d", workload, seed, i), b.proc, conns(), nil)
		rep, err := b.runRep(workload, env, seed)
		if err != nil {
			return nil, err
		}
		if !b.keep {
			os.RemoveAll(env.Dir)
		}
		reps = append(reps, rep)
		fmt.Fprintf(b.log, "%s seed %d rep %d: setup %.3fs submit_p50 %.3fms status_p50 %.3fms %.1f/s drain %.3fs recover %.3fs makespan %.3fs\n",
			workload, seed, i, rep.SetupS, driver.Median(rep.Load.SubmitMS), driver.Median(rep.Load.StatusMS),
			float64(rep.Load.Acked)/rep.Load.Secs, rep.DrainS, rep.RecoverS, rep.MakespanS)
		p.attempted += attempted(rep)
		p.failed += rep.Failed()
		if elapsed := time.Since(start).Seconds(); elapsed+elapsed/float64(i+1) > b.seconds {
			break
		}
	}
	if workload == driver.Replay {
		for _, rep := range reps[1:] {
			if rep.Fingerprint() != reps[0].Fingerprint() {
				p.correct = false
				fmt.Fprintf(b.log, "replay: CHECK FAILED: output did not repeat:\n  %s\n  %s\n", reps[0].Fingerprint(), rep.Fingerprint())
			}
		}
	}
	over := func(f func(*driver.Rep) float64) float64 {
		vals := make([]float64, len(reps))
		for i, rep := range reps {
			vals[i] = f(rep)
		}
		return driver.Median(vals)
	}
	p.values = map[string]float64{
		"setup_s":                 over(func(r *driver.Rep) float64 { return r.SetupS }),
		"submit_p50_ms":           over(func(r *driver.Rep) float64 { return driver.Median(r.Load.SubmitMS) }),
		"submit_throughput_per_s": over(func(r *driver.Rep) float64 { return float64(r.Load.Acked) / r.Load.Secs }),
		"recover_s":               over(func(r *driver.Rep) float64 { return r.RecoverS }),
		"makespan_s":              over(func(r *driver.Rep) float64 { return r.MakespanS }),
	}
	var submit, status []float64
	for _, rep := range reps {
		submit = append(submit, rep.Load.SubmitMS...)
		status = append(status, rep.Load.StatusMS...)
	}
	fmt.Fprintf(b.log, "%s seed %d: %d reps in %.1fs; submit %s; status %s\n",
		workload, seed, len(reps), time.Since(start).Seconds(), tail(submit, "ms"), tail(status, "ms"))
	return p, nil
}

// tail renders a pooled latency sample as its median and the highest
// percentile that still has ten samples beyond it, with the count.
func tail(sample []float64, unit string) string {
	if len(sample) == 0 {
		return "n=0"
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	label, q := topPercentile(len(s))
	if label == "p50" {
		return fmt.Sprintf("n=%d p50=%.3f%s", len(s), driver.Quantile(s, 0.5), unit)
	}
	return fmt.Sprintf("n=%d p50=%.3f%s %s=%.3f%s", len(s), driver.Quantile(s, 0.5), unit, label, driver.Quantile(s, q), unit)
}

func topPercentile(n int) (string, float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.label, c.q
		}
	}
	return "p50", 0.5
}

// layers is the traced pass. One rep against the real binary is the
// reference: it yields the process costs and the daemon's own counters.
// One rep against the traced twin, same seed, one connection, yields the
// spans. Standalone probes time the layers no span can isolate. Both
// reps drive one connection, so their makespans differ by what tracing
// costs.
func (b *bench) layers(workload string, seed uint64) (*pass, error) {
	p := &pass{correct: true}
	ref, err := b.runRep(workload, b.env(workload+"-ref", b.proc, 1, nil), seed)
	if err != nil {
		return nil, err
	}
	rec := probes.NewRecorder()
	twinEnv := b.env(workload+"-twin", func(boot driver.Boot) driver.Daemon { return probes.NewTwin(boot, rec) }, 1, rec.Client)
	twin, err := b.runRep(workload, twinEnv, seed)
	if err != nil {
		return nil, err
	}
	for _, rep := range []*driver.Rep{ref, twin} {
		p.attempted += attempted(rep)
		p.failed += rep.Failed()
	}
	// Twin fidelity: on the frozen-clock replay the twin's deterministic
	// output must equal the binary's, or the layer table below measures a
	// different program.
	if workload == driver.Replay && ref.Fingerprint() != twin.Fingerprint() {
		p.correct = false
		fmt.Fprintf(b.log, "replay: CHECK FAILED: twin diverged from the binary:\n  binary %s\n  twin   %s\n", ref.Fingerprint(), twin.Fingerprint())
	}
	traceDir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(traceDir, workload+".jsonl")
	if err := rec.WriteJSONL(tracePath); err != nil {
		return nil, err
	}

	jobs := inputs.Jobs(workload, 512)
	if workload == driver.Replay {
		jobs = jobs[:b.sizes.ReplayJobs]
	}
	probeDir := filepath.Join(b.work, workload+"-probe")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, err
	}
	m, err := probes.Standalone{Dir: probeDir, Statements: jobs, Launch: b.proc}.Run()
	if err != nil {
		return nil, fmt.Errorf("standalone probes: %w", err)
	}

	shards := 1
	codecRTT := m["serve.codec.json_rtt_us"]
	switch workload {
	case driver.Ingest:
		codecRTT = m["serve.codec.binary_rtt_us"]
	case driver.Sharded:
		shards = 2
		if m["serve.router.forward_us"], err = probes.RouterForwardUS(b.proc, probeDir, jobs[0]); err != nil {
			return nil, fmt.Errorf("router forward probe: %w", err)
		}
	}
	breakdown := probes.Analyze(rec.Spans())
	for k, v := range breakdown.Metrics(codecRTT) {
		m[k] = v
	}
	replayMS, recovered, err := probes.RecoverReplay(filepath.Join(twinEnv.Dir, "journal"), shards)
	if err != nil {
		return nil, err
	}
	m["serve.recover.replay_ms"] = replayMS
	m["serve.recover.recovered_jobs"] = float64(recovered)

	// Client-side tails and the daemon's own counters, from the reference.
	sort.Float64s(ref.Load.SubmitMS)
	sort.Float64s(ref.Load.StatusMS)
	sort.Float64s(ref.Load.LateMS)
	m["loadgen.submit_p90_ms"] = driver.Quantile(ref.Load.SubmitMS, 0.90)
	m["loadgen.submit_p99_ms"] = driver.Quantile(ref.Load.SubmitMS, 0.99)
	m["loadgen.status_p50_ms"] = driver.Quantile(ref.Load.StatusMS, 0.50)
	m["loadgen.status_p99_ms"] = driver.Quantile(ref.Load.StatusMS, 0.99)
	m["loadgen.drain_s"] = ref.DrainS
	m["loadgen.late_p99_ms"] = driver.Quantile(ref.Load.LateMS, 0.99)
	m["loadgen.attempted"] = float64(ref.Load.Submitted + ref.Load.StatusSent)
	m["loadgen.acked"] = float64(ref.Load.Acked)
	m["loadgen.refused"] = float64(ref.Load.Refused)
	m["loadgen.errors"] = float64(ref.Load.Errors)

	sum := func(series string) float64 { return sumSeries(ref.Metrics, series) }
	submits := sum(`rotary_serve_requests_total{op="submit"}`)
	m["serve.ingress.batch_mean"] = ratio(sum("rotary_serve_ingress_batch_size_sum"), sum("rotary_serve_ingress_batch_size_count"))
	m["serve.ingress.overloaded"] = sum("rotary_serve_overloaded_total")
	m["serve.journal.records_per_submit"] = ratio(sum("rotary_serve_journal_records_total"), submits)
	m["admission.submitted"] = sum("rotary_admission_submitted_total")
	m["admission.admitted"] = sum("rotary_admission_admitted_total")
	m["core.exec.epochs"] = sum("rotary_aqp_epochs_total")
	m["core.exec.watchdog_preemptions"] = sum("rotary_aqp_watchdog_preemptions_total")
	m["core.exec.epochs_per_s"] = ratio(m["core.exec.epochs"], ref.Load.Secs)
	m["core.exec.vsecs_per_s"] = ratio(ref.FinalVirtualNow, ref.MakespanS)
	m["core.exec.attained_share"] = ratio(float64(ref.Outcomes["attained"]), float64(len(ref.Load.AckedIDs)))
	m["core.checkpoint.mem_hit_share"] = ratio(sum("rotary_ckpt_mem_hits_total"), sum("rotary_ckpt_mem_hits_total")+sum("rotary_ckpt_disk_hits_total"))
	var forwards []float64
	for i := 0; i < shards; i++ {
		forwards = append(forwards, ref.Metrics[fmt.Sprintf(`rotary_router_forwards_total{shard="%d"}`, i)])
	}
	sort.Float64s(forwards)
	m["serve.router.forwards"] = sum("rotary_router_forwards_total")
	m["serve.router.shard_skew"] = ratio(forwards[len(forwards)-1], forwards[0])
	if _, ok := m["serve.router.forward_us"]; !ok {
		m["serve.router.forward_us"] = 0
	}
	if shards == 1 {
		m["serve.router.shard_skew"] = 0
	}

	// What the reference daemon cost the host. The first process booted is
	// the one that served the load.
	var usage driver.Usage
	if proc, ok := ref.Booted[0].(*driver.Proc); ok {
		usage = proc.Usage()
	}
	m["serve.cpu_s"] = usage.CPUSecs
	m["serve.cpu_ms_per_submit"] = ratio(1e3*usage.CPUSecs, float64(ref.Load.Submitted))
	m["serve.rss_peak_mb"] = usage.RSSPeakMB
	m["trace.overhead_share"] = ratio(twin.MakespanS-ref.MakespanS, ref.MakespanS)

	fmt.Fprintf(b.log, "%s seed %d traced twin (%s, go %s, %d cpu): makespan %.3fs vs %.3fs untraced; spans in %s\n%s",
		workload, seed, runtime.GOOS+"/"+runtime.GOARCH, runtime.Version(), runtime.NumCPU(),
		twin.MakespanS, ref.MakespanS, tracePath, breakdown.Table())
	p.values = m
	return p, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumSeries adds up every series of a metric family across label sets:
// a router renders each shard's registry under a shard label, and the
// benchmark wants the daemon's total. A name given with its own labels
// matches series that carry those labels.
func sumSeries(metrics map[string]float64, name string) float64 {
	family, labels, _ := strings.Cut(name, "{")
	labels = strings.TrimSuffix(labels, "}")
	total := 0.0
	for series, v := range metrics {
		f, l, _ := strings.Cut(series, "{")
		if f == family && strings.Contains(l, labels) {
			total += v
		}
	}
	return total
}
