package cliutil

import (
	"errors"
	"fmt"
	"os"

	"rotary/internal/core"
	"rotary/internal/faults"
	"rotary/internal/metrics"
	"rotary/internal/obs"
)

// RunFlags are the batch commands' shared instrumentation flags. A
// command without fault injection or a -trace flag leaves those zero.
type RunFlags struct {
	// Seed is the command's -seed; FaultSeed (-fault-seed) falls back to
	// it when zero.
	Seed, FaultSeed uint64
	// FaultRate is -fault-rate: the faults.Uniform mix, 0 disables it.
	FaultRate float64
	// Trace is -trace: how many of the last arbitration events to print.
	Trace int
	// TraceOut is -trace-out, the JSONL file every trace event streams to.
	TraceOut string
	// MetricsOut is -metrics-out, the file the final registry goes to.
	MetricsOut string
}

// Validate range-checks the flags, so a command refuses them with the
// rest of its flags before any dataset is generated. -fault-rate stops
// at the injector's ceiling: faults.Uniform would clamp anything above
// it while the run still reported the requested rate.
func (f RunFlags) Validate() error {
	var rate error
	if !(f.FaultRate >= 0 && f.FaultRate <= faults.MaxUniformRate) { // NaN fails too
		rate = fmt.Errorf("-fault-rate must be in [0, %g] (got %g)", faults.MaxUniformRate, f.FaultRate)
	}
	return ValidateAll(MinInt("-trace", f.Trace, 0), rate)
}

// Run is a batch command's armed instrumentation: the fault injector
// and its checkpoint store, the tracer and its JSONL sink, and the
// metrics file to write at the end.
type Run struct {
	flags  RunFlags
	dir    string
	store  *core.CheckpointStore
	tracer *core.Tracer
	sink   *obs.JSONLSink
}

// Start arms what the flags ask for. With a fault rate it deals
// faults.Uniform into every cfg and into one checkpoint store in a
// temporary directory, and prints that injection is armed. With -trace
// or -trace-out it installs the process default tracer, which every
// executor built afterwards adopts; its ring keeps the -trace events to
// print, and -trace-out streams all of them.
func Start(f RunFlags, cfgs ...*core.ExecConfig) (*Run, error) {
	r := &Run{flags: f}
	if f.FaultRate > 0 {
		seed := f.FaultSeed
		if seed == 0 {
			seed = f.Seed
		}
		var err error
		if r.dir, err = os.MkdirTemp("", "rotary-ckpt-*"); err != nil {
			return nil, err
		}
		if r.store, err = core.NewCheckpointStore(r.dir, 8); err != nil {
			os.RemoveAll(r.dir)
			return nil, err
		}
		injector := faults.New(faults.Uniform(seed, f.FaultRate))
		r.store.SetFaults(injector)
		for _, cfg := range cfgs {
			cfg.Store, cfg.Faults = r.store, injector
		}
		fmt.Printf("fault injection armed: rate=%g seed=%d\n", f.FaultRate, seed)
	}
	if f.Trace > 0 || f.TraceOut != "" {
		r.tracer = core.NewTracer(max(f.Trace, 1))
		core.SetDefaultTracer(r.tracer)
	}
	if f.TraceOut != "" {
		var err error
		if r.sink, err = obs.OpenJSONLSink(f.TraceOut); err != nil {
			os.RemoveAll(r.dir)
			return nil, fmt.Errorf("-trace-out: %w", err)
		}
		r.tracer.SetSink(r.sink)
	}
	return r, nil
}

// Report prints what the run observed: the recovery report of policy
// when faults were injected, and the last -trace arbitration events.
func (r *Run) Report(policy string, rec core.RecoveryStats) {
	if r.store != nil {
		fmt.Println()
		fmt.Print(metrics.RenderRecovery(policy, rec, r.store.Health()))
	}
	if r.flags.Trace > 0 {
		fmt.Printf("\nlast %d arbitration events:\n%s", r.flags.Trace, r.tracer.Render(r.flags.Trace))
	}
}

// Close writes -metrics-out, closes the trace sink and removes the
// checkpoint directory. A metrics file or trace the run could not write
// is an error: a run must not exit 0 with its output lost.
func (r *Run) Close() error {
	defer os.RemoveAll(r.dir) // a no-op when no faults were armed (dir "")
	var err error
	if r.flags.MetricsOut != "" {
		if werr := os.WriteFile(r.flags.MetricsOut, []byte(obs.Default().RenderText(true)), 0o644); werr != nil {
			err = fmt.Errorf("-metrics-out: %w", werr)
		} else {
			fmt.Printf("wrote metrics to %s\n", r.flags.MetricsOut)
		}
	}
	if cerr := r.sink.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("-trace-out: %w", cerr))
	}
	return err
}
