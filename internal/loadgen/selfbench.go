// Self-bench: the reproducible experiment behind BENCH_2.json. It runs
// the same closed-loop submit workload against two in-process durable
// servers that differ in exactly one knob — IngressBatch 1 (the
// request-at-a-time, one-fsync-per-submit baseline) versus the batched
// driver (group commit: one fsync covers every record the batch
// staged) — and reports the throughput ratio. Both servers journal to
// the same disk, run the same policy over the same dataset, and see the
// same request sequence, so the ratio isolates what the ingress ring
// and group commit buy at the serving front end.
package loadgen

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rotary/internal/admission"
	"rotary/internal/baselines"
	"rotary/internal/core"
	"rotary/internal/estimate"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// BenchCase is one self-bench server configuration plus its measured
// outcome.
type BenchCase struct {
	Name         string `json:"name"`
	IngressBatch int    `json:"ingress_batch"`
	// Syncs / Records / Groups are the journal's fsync accounting for the
	// run: Records must match across cases (identical durable history);
	// Syncs is what group commit amortizes; Groups counts multi-record
	// commits.
	Syncs   int64   `json:"journal_syncs"`
	Records int64   `json:"journal_records"`
	Groups  int64   `json:"journal_group_commits"`
	Result  *Result `json:"result"`
}

// BenchReport is the BENCH_2.json document.
type BenchReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// FsyncNs calibrates the benchmark disk: the measured cost of one
	// fsync on the journal directory's filesystem. The speedup claim is
	// only comparable across machines after scaling by this.
	FsyncNs int64 `json:"fsync_ns"`
	// Speedup is batched acked-submit throughput over the
	// fsync-per-submit baseline's, at the same workload.
	Speedup float64     `json:"speedup"`
	Cases   []BenchCase `json:"cases"`
	Soak    *Result     `json:"soak,omitempty"`
}

// BenchConfig parameterizes the self-bench.
type BenchConfig struct {
	// Dir is where the two servers journal (one subdirectory each).
	// Empty uses a temp dir under the working directory, so the fsyncs
	// hit the real project disk, not tmpfs.
	Dir string
	// Ops is the closed-loop submit count per case. Defaults to 4096.
	Ops int
	// Conns is the closed-loop connection count. Defaults to 64 — enough
	// outstanding requests to fill an IngressBatch-sized group.
	Conns int
	// Batch is the batched case's IngressBatch. Defaults to 64.
	Batch int
	// SoakClients / SoakRate / SoakSecs parameterize the optional third
	// case: an open-loop soak with a large simulated client population
	// against the batched server, reporting latency quantiles under a
	// fixed offered load. SoakClients 0 skips it.
	SoakClients int
	SoakRate    float64
	SoakSecs    float64
	// Progress, when non-nil, receives one line per completed stage.
	Progress func(string)
}

// RunBench executes the self-bench and returns the report.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 4096
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 64
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	say := cfg.Progress
	if say == nil {
		say = func(string) {}
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp(".", "loadbench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	// The bench needs the client workers, connection handlers, and the
	// driver actually interleaving: on a single-CPU box GOMAXPROCS=1
	// serializes the whole chain so the ring never holds more than one
	// request and no group ever forms. Raise the scheduler's parallelism
	// (pure goroutine interleaving — no extra cores required) and record
	// it in the report.
	procs := runtime.GOMAXPROCS(0)
	if procs < 8 {
		procs = 8
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	rep := &BenchReport{
		Schema:     "rotary-loadbench/1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: procs,
	}
	fsyncNs, err := calibrateFsync(dir)
	if err != nil {
		return nil, err
	}
	rep.FsyncNs = fsyncNs
	say(fmt.Sprintf("fsync calibration: %.1fµs on %s", float64(fsyncNs)/1e3, dir))

	// The tiny dataset keeps catalog construction cheap; the front end,
	// not the scan volume, is what this benchmark stresses.
	ds := tpch.Generate(0.002, 1)

	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"fsync-per-submit", 1},
		{"group-commit", cfg.Batch},
	} {
		c, err := runBenchCase(dir, bc.name, bc.batch, ds, Config{
			Conns: cfg.Conns,
			Ops:   cfg.Ops,
		})
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", bc.name, err)
		}
		rep.Cases = append(rep.Cases, *c)
		say(fmt.Sprintf("case %-16s: %7.0f submits/s acked, p99 %.2fms (%d fsyncs for %d records, %d group commits)",
			c.Name, c.Result.Throughput, c.Result.Submit.P99, c.Syncs, c.Records, c.Groups))
	}
	base, batched := rep.Cases[0], rep.Cases[1]
	if base.Result.Throughput > 0 {
		rep.Speedup = batched.Result.Throughput / base.Result.Throughput
	}

	if cfg.SoakClients > 0 {
		c, err := runBenchCase(dir, "open-loop-soak", cfg.Batch, ds, Config{
			Conns:       cfg.Conns,
			Clients:     cfg.SoakClients,
			Rate:        cfg.SoakRate,
			Duration:    time.Duration(cfg.SoakSecs * float64(time.Second)),
			StatusEvery: 8,
		})
		if err != nil {
			return nil, fmt.Errorf("case open-loop-soak: %w", err)
		}
		rep.Soak = c.Result
		say(fmt.Sprintf("case %-16s: %d clients at %.0f/s: submit p50 %.2fms p99 %.2fms p999 %.2fms; status p99 %.2fms",
			"open-loop-soak", c.Result.Clients, c.Result.Rate,
			c.Result.Submit.P50, c.Result.Submit.P99, c.Result.Submit.P999, c.Result.Status.P99))
	}
	return rep, nil
}

// runBenchCase boots one durable server with the given IngressBatch,
// drives the workload against it, drains it, and collects the journal's
// sync accounting.
func runBenchCase(dir, name string, ingressBatch int, ds *tpch.Dataset, lcfg Config) (*BenchCase, error) {
	caseDir := filepath.Join(dir, name)
	if err := os.RemoveAll(caseDir); err != nil {
		return nil, err
	}
	jl, _, err := serve.OpenDurableIO(caseDir, nil)
	if err != nil {
		return nil, err
	}
	defer jl.Close()

	// Round-robin keeps per-arrival arbitration cost flat and identical
	// across cases, so the measured difference is the front end's. The
	// checkpoint store stays nil — a store makes every arrival marshal a
	// pristine checkpoint, which benchmarks the checkpoint subsystem, not
	// the ingress/journal path (journal-only servers recover from scratch,
	// a supported mode).
	cat := tpch.NewCatalog(ds, 1)
	execCfg := core.DefaultAQPExecConfig(workload.DefaultAQPMemoryMB(cat))
	execCfg.Admission = admission.NewController(admission.Config{}) // unbounded: refusals would skew the ratio
	exec := core.NewAQPExecutor(execCfg, baselines.RoundRobinAQP{}, estimate.NewRepository())

	socket := filepath.Join(dir, name+".sock")
	srv, err := serve.New(serve.Config{
		Socket:       socket,
		Pace:         0, // frozen clock: no epoch churn competes with the ingress path
		Journal:      jl,
		IngressBatch: ingressBatch,
	}, exec, cat)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	if err := awaitSocket(socket, 5*time.Second); err != nil {
		return nil, err
	}

	lcfg.Addr = socket
	lcfg.Codec = serve.CodecBinary
	lcfg.IDPrefix = name
	res, runErr := Run(lcfg)

	// Drain regardless of the run's outcome so the server goroutine and
	// journal shut down cleanly.
	if cl, err := serve.NewClient(serve.ClientConfig{Socket: socket}); err == nil {
		cl.Do(serve.Message{Op: "drain"})
		cl.Close()
	}
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("server exited: %w (run error: %v)", err, runErr)
	}
	if runErr != nil {
		return nil, runErr
	}
	if res.Errors > 0 || res.Refused > 0 {
		return nil, fmt.Errorf("%d errors, %d refusals — the ratio would not be comparing equal work (first error: %s)", res.Errors, res.Refused, res.FirstError)
	}
	syncs, records, groups := jl.SyncStats()
	return &BenchCase{
		Name:         name,
		IngressBatch: ingressBatch,
		Syncs:        syncs,
		Records:      records,
		Groups:       groups,
		Result:       res,
	}, nil
}

// awaitSocket polls until the server answers on its socket. A Stat
// probe is not enough: bind() creates the socket file before listen()
// arms it, and on a busy box the server goroutine can be preempted in
// that window — a dial against the half-born socket gets ECONNREFUSED.
// Only an accepted connection proves readiness.
func awaitSocket(path string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if conn, err := net.DialTimeout("unix", path, 100*time.Millisecond); err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server socket %s never answered a dial", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// calibrateFsync measures one fsync's cost on the benchmark directory's
// filesystem, so the committed report carries the disk it was taken on.
func calibrateFsync(dir string) (int64, error) {
	f, err := os.CreateTemp(dir, "fsync-cal-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const n = 200
	buf := []byte("calibration\n")
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds() / n, nil
}
