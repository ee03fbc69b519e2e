package probes

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rotary/benchmark/driver"
	"rotary/benchmark/inputs"
	"rotary/internal/criteria"
	"rotary/internal/diskio"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// Standalone times single layers outside any workload. Each probe calls
// the layer's public entry point directly, so its number bounds what an
// optimization of that layer alone can buy a request.
type Standalone struct {
	// Dir is a scratch directory on the disk the journals use.
	Dir string
	// Statements are the run's generated statements.
	Statements []inputs.Job
	// Launch boots the real binary for the probes that need the wire: an
	// in-process server skips the cross-process wake-up that dominates a
	// small request's round trip.
	Launch driver.Launcher
}

func usPerOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

// Run executes every probe and returns the per-layer metrics they feed.
func (p Standalone) Run() (map[string]float64, error) {
	m := map[string]float64{"host.nproc": float64(runtime.NumCPU())}
	m["host.spin_cal_ms"] = spinCalMS()

	cal, err := fsyncCalUS(p.Dir)
	if err != nil {
		return nil, err
	}
	m["diskio.fsync_cal_us"] = cal

	var gen []float64
	var ds *tpch.Dataset
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		ds = tpch.Generate(defaultSF, defaultSeed)
		gen = append(gen, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["tpch.generate_ms"] = quantile(gen, 0.5)
	cat := tpch.NewCatalog(ds, defaultSeed)

	t0 := time.Now()
	for _, j := range p.Statements {
		if _, _, err := criteria.Parse(j.Statement); err != nil {
			return nil, err
		}
	}
	m["criteria.parse_us"] = usPerOp(time.Since(t0), len(p.Statements))

	specs, err := specsOf(p.Statements, workload.RecommendedBatchRows(cat))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for _, s := range specs {
		if _, err := workload.BuildAQPJob(cat, s); err != nil {
			return nil, err
		}
	}
	m["workload.build_job_us"] = usPerOp(time.Since(t0), len(specs))

	q, err := cat.NewQuery("q5")
	if err != nil {
		return nil, err
	}
	var batch []float64
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if rows, _ := q.ProcessBatch(workload.RecommendedBatchRows(cat), 1); rows == 0 {
			break
		}
		batch = append(batch, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["aqp.process_batch_us"] = quantile(batch, 0.5)

	frame, err := frameUSPerRecord(filepath.Join(p.Dir, "frame"), p.Statements)
	if err != nil {
		return nil, err
	}
	m["serve.journal.frame_us_per_record"] = frame

	if err := p.idleServer(m); err != nil {
		return nil, err
	}
	return m, nil
}

// specsOf parses statements back into the specs serve builds jobs from.
func specsOf(jobs []inputs.Job, batchRows int) ([]workload.AQPSpec, error) {
	specs := make([]workload.AQPSpec, 0, len(jobs))
	for _, j := range jobs {
		cmd, crit, err := criteria.Parse(j.Statement)
		if err != nil {
			return nil, err
		}
		cls, err := tpch.ClassOf(cmd)
		if err != nil {
			return nil, err
		}
		deadline, _ := crit.Deadline.DeadlineSeconds()
		specs = append(specs, workload.AQPSpec{
			ID: j.ID, Query: cmd, Class: cls, Accuracy: crit.Threshold, DeadlineSecs: deadline, BatchRows: batchRows,
		})
	}
	return specs, nil
}

// idleServer boots the binary on an empty journal and times its start
// and the health round trip under each codec: the floor under every
// request's latency, and the answer to whether the binary codec pays
// for itself.
func (p Standalone) idleServer(m map[string]float64) error {
	boot := driver.Boot{Socket: filepath.Join(p.Dir, "idle.sock"), JournalDir: filepath.Join(p.Dir, "idle"), Shards: 1}
	d := p.Launch(boot)
	t0 := time.Now()
	if err := d.Start(); err != nil {
		return err
	}
	defer d.Kill()
	for _, codec := range []string{serve.CodecJSON, serve.CodecBinary} {
		cl, err := bootClient(boot.Socket, codec)
		if err != nil {
			return err
		}
		if _, err := cl.Do(serve.Message{Op: "health"}); err != nil {
			cl.Close()
			return err
		}
		if codec == serve.CodecJSON {
			m["serve.recover.boot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		rtt, err := rttUS(cl, serve.Message{Op: "health"}, 2000)
		cl.Close()
		if err != nil {
			return err
		}
		m["serve.codec."+codec+"_rtt_us"] = rtt
	}
	return nil
}

// bootClient retries its first request until the daemon has bound.
func bootClient(socket, codec string) (*serve.Client, error) {
	return serve.NewClient(serve.ClientConfig{
		Socket: socket, Codec: codec, Attempts: 200, Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	})
}

// rttUS is the median round trip of n repeats of one request.
func rttUS(cl *serve.Client, msg serve.Message, n int) (float64, error) {
	sample := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := cl.Do(msg)
		if err != nil {
			return 0, err
		}
		if !resp.OK {
			return 0, fmt.Errorf("%s: %s", msg.Op, resp.Error)
		}
		sample = append(sample, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(sample, 0.5), nil
}

// RouterForwardUS boots the binary with two shards, submits a job, and
// reads its status through the router and on its shard's private socket:
// the difference of the medians is the forward hop.
func RouterForwardUS(launch driver.Launcher, dir string, job inputs.Job) (float64, error) {
	boot := driver.Boot{Socket: filepath.Join(dir, "fwd.sock"), JournalDir: filepath.Join(dir, "fwd"), Shards: 2}
	d := launch(boot)
	if err := d.Start(); err != nil {
		return 0, err
	}
	defer d.Kill()
	via, err := bootClient(boot.Socket, serve.CodecJSON)
	if err != nil {
		return 0, err
	}
	defer via.Close()
	resp, err := via.Do(serve.Message{Op: "submit", ID: job.ID, Statement: job.Statement})
	if err != nil || !resp.OK {
		return 0, fmt.Errorf("forward probe submit: %v %s", err, resp.Error)
	}
	direct, err := serve.NewClient(serve.ClientConfig{Socket: fmt.Sprintf("%s.shard%d", boot.Socket, resp.Shard)})
	if err != nil {
		return 0, err
	}
	defer direct.Close()
	status := serve.Message{Op: "status", ID: job.ID}
	routed, err := rttUS(via, status, 1000)
	if err != nil {
		return 0, err
	}
	local, err := rttUS(direct, status, 1000)
	if err != nil {
		return 0, err
	}
	return routed - local, nil
}

// RecoverReplay times serve.ReplayJournal over every journal a workload
// left under journalDir and counts the jobs it rebuilt.
func RecoverReplay(journalDir string, shards int) (ms float64, jobs int, err error) {
	dirs := journalDirs(journalDir, shards)
	t0 := time.Now()
	for _, dir := range dirs {
		rec, err := serve.ReplayJournal(dir)
		if err != nil {
			return 0, 0, err
		}
		jobs += len(rec.Jobs)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, jobs, nil
}

// discardIO is a disk that accepts everything and keeps nothing, so an
// append onto it costs only the journal's own framing and bookkeeping.
type discardIO struct{ diskio.OS }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

func (discardIO) OpenFile(string, int, os.FileMode) (diskio.File, error) { return discardFile{}, nil }
func (discardIO) Rename(string, string) error                            { return nil }
func (discardIO) Remove(string) error                                    { return nil }
func (discardIO) SyncDir(string) error                                   { return nil }

// frameUSPerRecord appends a submit's three records (submit, verdict,
// grant) per statement onto the discarding disk.
func frameUSPerRecord(dir string, jobs []inputs.Job) (float64, error) {
	jl, err := serve.OpenJournalIO(dir, discardIO{})
	if err != nil {
		return 0, err
	}
	defer jl.Close()
	jl.SetCompactBytes(1 << 40)
	t0 := time.Now()
	for i, j := range jobs {
		at := float64(i)
		if err := jl.Append(
			serve.Record{Kind: "submit", ID: j.ID, ReqID: "r-" + j.ID, Statement: j.Statement, BatchRows: 2000, At: at},
			serve.Record{Kind: "verdict", ID: j.ID, Status: "admitted", At: at},
			serve.Record{Kind: "grant", ID: j.ID, At: at},
		); err != nil {
			return 0, err
		}
	}
	return usPerOp(time.Since(t0), 3*len(jobs)), nil
}

// fsyncCalUS is the idle-disk cost of one small write plus fsync, the
// calibration BENCH_2 carries: it tells a slow disk from a slow journal.
func fsyncCalUS(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-cal-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const n = 200
	sample := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write([]byte("calibration\n")); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		sample = append(sample, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(sample, 0.5), nil
}

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

// spinCalMS times a fixed integer loop: the host's single-core speed,
// which tells a slow machine from a slow program.
func spinCalMS() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
