package driver

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rotary/benchmark/inputs"
	"rotary/internal/serve"
)

// Observer receives one span per client round trip. Only traced runs
// set it; conn tells the spans of concurrent connections apart.
type Observer func(op string, conn int, start, end time.Time)

// conn is one client connection whose round trips are observed.
type conn struct {
	cl    *serve.Client
	index int
	obs   Observer
}

// dial opens a lazy connection. attempts is the per-request retry budget:
// 1 for measured load (a retry would hide a failure inside a latency),
// more for control requests that straddle a daemon start.
func dial(socket, codec string, index, attempts int, timeout time.Duration, obs Observer) (*conn, error) {
	cl, err := serve.NewClient(serve.ClientConfig{
		Socket:         socket,
		Codec:          codec,
		Attempts:       attempts,
		RequestTimeout: timeout,
	})
	if err != nil {
		return nil, err
	}
	return &conn{cl: cl, index: index, obs: obs}, nil
}

func (c *conn) do(m serve.Message) (serve.Response, error) {
	start := time.Now()
	resp, err := c.cl.Do(m)
	if c.obs != nil {
		c.obs(m.Op, c.index, start, time.Now())
	}
	return resp, err
}

func (c *conn) close() { c.cl.Close() }

// Load is what one load phase observed from the client side.
type Load struct {
	// SubmitMS and StatusMS are acked round-trip latencies. Open-loop
	// submits are timed from their scheduled arrival, so a stall is
	// charged to every request queued behind it.
	SubmitMS []float64
	StatusMS []float64
	// LateMS is how far behind schedule each open-loop submit was sent.
	LateMS []float64
	// Submitted and StatusSent count the requests sent; Acked the OK
	// submits, Refused the typed submit refusals, Errors the transport
	// failures and non-OK statuses.
	Submitted, StatusSent, Acked, Refused, Errors int
	// AckedIDs are the job ids the server acknowledged, per connection
	// in ack order.
	AckedIDs   []string
	Secs       float64
	FirstError string
}

// merge folds a later load phase of the same rep into l.
func (l *Load) merge(o Load) {
	l.SubmitMS = append(l.SubmitMS, o.SubmitMS...)
	l.StatusMS = append(l.StatusMS, o.StatusMS...)
	l.LateMS = append(l.LateMS, o.LateMS...)
	l.AckedIDs = append(l.AckedIDs, o.AckedIDs...)
	l.Submitted += o.Submitted
	l.StatusSent += o.StatusSent
	l.Acked += o.Acked
	l.Refused += o.Refused
	l.Errors += o.Errors
	l.Secs += o.Secs
	if l.FirstError == "" {
		l.FirstError = o.FirstError
	}
}

// loadCfg parameterizes runLoad.
type loadCfg struct {
	socket string
	codec  string
	conns  int
	jobs   []inputs.Job
	// rate > 0 schedules the submits as Poisson arrivals at that mean rate
	// (open loop); 0 keeps one request in flight per connection (closed
	// loop).
	rate float64
	// statusEvery sends a status for a seeded earlier-acked id of the
	// same connection before every n-th submit (0 disables).
	statusEvery int
	seed        uint64
	obs         Observer
}

// runLoad submits every job once over the configured connections.
func runLoad(cfg loadCfg) Load {
	type part struct {
		submit, status, late []float64
		acked                []string
		submitted, statuses  int
		refused, errs        int
		firstErr             string
	}
	parts := make([]part, cfg.conns)
	var due []time.Duration
	if cfg.rate > 0 {
		due = poissonSchedule(len(cfg.jobs), cfg.rate, cfg.seed)
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			fail := func(err error) {
				p.errs++
				if p.firstErr == "" {
					p.firstErr = err.Error()
				}
			}
			c, err := dial(cfg.socket, cfg.codec, w, 1, 30*time.Second, cfg.obs)
			if err != nil {
				fail(err)
				return
			}
			defer c.close()
			rng := rand.New(rand.NewPCG(cfg.seed, uint64(w)+1))
			sent := 0
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cfg.jobs) {
					return
				}
				sched := time.Now()
				if cfg.rate > 0 {
					sched = start.Add(due[i])
					if d := time.Until(sched); d > 0 {
						time.Sleep(d)
					}
				}
				sent++
				if cfg.statusEvery > 0 && sent%cfg.statusEvery == 0 && len(p.acked) > 0 {
					id := p.acked[rng.IntN(len(p.acked))]
					p.statuses++
					t0 := time.Now()
					resp, err := c.do(serve.Message{Op: "status", ID: id})
					switch {
					case err != nil:
						fail(err)
						return
					case !resp.OK:
						fail(fmt.Errorf("status %s: %s", id, resp.Error))
					default:
						p.status = append(p.status, ms(time.Since(t0)))
					}
				}
				job := cfg.jobs[i]
				p.submitted++
				if cfg.rate > 0 {
					p.late = append(p.late, ms(time.Since(sched)))
				}
				resp, err := c.do(serve.Message{Op: "submit", ID: job.ID, ReqID: "r-" + job.ID, Statement: job.Statement})
				switch {
				case err != nil:
					fail(err)
					return // the connection is gone; this worker is done
				case resp.OK:
					p.submit = append(p.submit, ms(time.Since(sched)))
					p.acked = append(p.acked, job.ID)
				default:
					p.refused++
					if p.firstErr == "" {
						p.firstErr = fmt.Sprintf("submit %s refused: %s %s", job.ID, resp.Code, resp.Error)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var out Load
	out.Secs = time.Since(start).Seconds()
	for _, p := range parts {
		out.merge(Load{
			SubmitMS: p.submit, StatusMS: p.status, LateMS: p.late, AckedIDs: p.acked,
			Submitted: p.submitted, StatusSent: p.statuses, Acked: len(p.acked),
			Refused: p.refused, Errors: p.errs, FirstError: p.firstErr,
		})
	}
	return out
}

// poissonSchedule draws n arrival offsets with exponential gaps, the
// arrivals of independent users, and rescales them to span exactly
// n/rate. Evenly spaced arrivals would lock phase with the daemon's
// 50 ms pacing tick: every other submit of a 40/s stream would meet the
// tick's journal sweep at one fixed offset, and the median latency would
// depend on that accident of start-up timing.
func poissonSchedule(n int, rate float64, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0xa771))
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	at := 0.0
	for i, g := range gaps {
		due[i] = time.Duration(at / total * float64(n) / rate * float64(time.Second))
		at += g
	}
	return due
}

// scriptReads is how many statuses a script reads before each submit. A
// script is short, and the first request after an advance finds the
// daemon's caches and the host's idle cores cold; with one read per
// arrival the median falls between the cold and the warm round trips and
// flips from run to run.
const scriptReads = 4

// runScript replays an arrival script on one connection: advance the
// frozen clock to each arrival, read the status of seeded earlier jobs,
// submit.
func runScript(socket string, jobs []inputs.Job, seed uint64, obs Observer) Load {
	var out Load
	fail := func(err error) {
		out.Errors++
		if out.FirstError == "" {
			out.FirstError = err.Error()
		}
	}
	c, err := dial(socket, serve.CodecJSON, 0, 1, 60*time.Second, obs)
	if err != nil {
		fail(err)
		return out
	}
	defer c.close()
	rng := rand.New(rand.NewPCG(seed, 1))
	start := time.Now()
	now := 0.0
	for _, job := range jobs {
		if d := job.ArrivalSecs - now; d > 0 {
			resp, err := c.do(serve.Message{Op: "advance", Seconds: d})
			if err != nil || !resp.OK {
				fail(fmt.Errorf("advance to %.1fs: %v %s", job.ArrivalSecs, err, resp.Error))
				break
			}
			now = job.ArrivalSecs
		}
		for i := 0; i < scriptReads && len(out.AckedIDs) > 0; i++ {
			id := out.AckedIDs[rng.IntN(len(out.AckedIDs))]
			out.StatusSent++
			t0 := time.Now()
			resp, err := c.do(serve.Message{Op: "status", ID: id})
			if err != nil || !resp.OK {
				fail(fmt.Errorf("status %s: %v %s", id, err, resp.Error))
			} else {
				out.StatusMS = append(out.StatusMS, ms(time.Since(t0)))
			}
		}
		out.Submitted++
		t0 := time.Now()
		resp, err := c.do(serve.Message{Op: "submit", ID: job.ID, ReqID: "r-" + job.ID, Statement: job.Statement})
		switch {
		case err != nil:
			fail(err)
		case resp.OK:
			out.SubmitMS = append(out.SubmitMS, ms(time.Since(t0)))
			out.AckedIDs = append(out.AckedIDs, job.ID)
			out.Acked++
		default:
			out.Refused++
			if out.FirstError == "" {
				out.FirstError = fmt.Sprintf("submit %s refused: %s %s", job.ID, resp.Code, resp.Error)
			}
		}
	}
	out.Secs = time.Since(start).Seconds()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
