package core_test

import (
	"bytes"
	"strings"
	"testing"

	"rotary/internal/core"
	"rotary/internal/criteria"
	"rotary/internal/dlt"
	"rotary/internal/estimate"
	"rotary/internal/obs"
	"rotary/internal/sim"
	"rotary/internal/tpch"
)

func TestAQPTraceSequencePerJob(t *testing.T) {
	cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
	tracer := &core.Tracer{}
	cfg := core.DefaultAQPExecConfig(1e6)
	cfg.Threads = 1
	cfg.Tracer = tracer
	exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
	a := buildJob(t, cat, "a", "q6", 0.9, 1e6)
	b := buildJob(t, cat, "b", "q12", 0.9, 1e6)
	exec.Submit(a, 0)
	exec.Submit(b, 0)
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"a", "b"} {
		evs := tracer.JobEvents(id)
		if len(evs) < 4 {
			t.Fatalf("%s: only %d events", id, len(evs))
		}
		if evs[0].Kind != core.TraceArrive {
			t.Errorf("%s: first event %v, want arrive", id, evs[0].Kind)
		}
		if last := evs[len(evs)-1]; last.Kind != core.TraceStop {
			t.Errorf("%s: last event %v, want stop", id, last.Kind)
		}
		// Grants and epoch completions must strictly alternate, and the
		// timeline must be monotone.
		depth := 0
		prev := evs[0].At
		for _, ev := range evs {
			if ev.At < prev {
				t.Fatalf("%s: time went backwards at %v", id, ev)
			}
			prev = ev.At
			switch ev.Kind {
			case core.TraceGrant:
				depth++
				if depth != 1 {
					t.Fatalf("%s: nested grant", id)
				}
				if ev.Threads != 1 {
					t.Errorf("%s: grant with %d threads, want 1", id, ev.Threads)
				}
			case core.TraceEpochDone:
				depth--
				if depth != 0 {
					t.Fatalf("%s: epoch-done without grant", id)
				}
			}
		}
	}
	if out := tracer.Render(10); !strings.Contains(out, "stop") {
		t.Errorf("rendered trace missing stops:\n%s", out)
	}
}

func TestDLTTraceRecordsPlacementsAndStops(t *testing.T) {
	tracer := &core.Tracer{}
	cfg := core.DefaultDLTExecConfig()
	cfg.GPUs = 1
	cfg.Tracer = tracer
	repo := estimate.NewRepository()
	sched := core.NewRotaryDLT(0.5, estimate.NewTEE(repo), estimate.NewTME(repo))
	exec := core.NewDLTExecutor(cfg, sched, repo)
	trainer, err := dlt.NewJob(dlt.Config{
		Model: "lenet", Dataset: "cifar10", BatchSize: 32,
		Optimizer: "sgd", LR: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	crit, _ := criteria.NewRuntime(criteria.Deadline{Value: 3, Unit: criteria.Epochs})
	j, err := core.NewDLTJob("t", trainer, crit)
	if err != nil {
		t.Fatal(err)
	}
	exec.Submit(j, 0)
	if err := exec.Run(); err != nil {
		t.Fatal(err)
	}
	evs := tracer.JobEvents("t")
	places, epochs, stops := 0, 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case core.TracePlace:
			places++
			if ev.Device != 0 {
				t.Errorf("placed on device %d of a 1-GPU cluster", ev.Device)
			}
		case core.TraceEpochDone:
			epochs++
		case core.TraceStop:
			stops++
		}
	}
	if places != 3 || epochs != 3 || stops != 1 {
		t.Errorf("places=%d epochs=%d stops=%d, want 3/3/1", places, epochs, stops)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *core.Tracer
	tr.Emit(core.TraceEvent{Kind: core.TraceArrive, Job: "x"})
	if tr.Events() != nil || tr.JobEvents("x") != nil {
		t.Error("nil tracer retained events")
	}
}

// captureSink records every TraceRecord it is handed.
type captureSink struct {
	recs []obs.TraceRecord
}

func (s *captureSink) WriteTrace(r obs.TraceRecord) error { s.recs = append(s.recs, r); return nil }
func (s *captureSink) Flush() error                       { return nil }

func TestTracerBoundedRing(t *testing.T) {
	sink := &captureSink{}
	tr := core.NewTracer(3)
	tr.SetSink(sink)
	for i := 0; i < 10; i++ {
		tr.Emit(core.TraceEvent{At: sim.Time(i), Kind: core.TraceGrant, Job: "j", Threads: i})
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("ring held %d events, want capacity 3", len(evs))
	}
	// The ring keeps the newest events in emit order.
	for i, ev := range evs {
		if want := 7 + i; ev.Threads != want {
			t.Errorf("ring[%d].Threads = %d, want %d", i, ev.Threads, want)
		}
	}
	if tr.Dropped() != 7 {
		t.Errorf("Dropped() = %d, want 7", tr.Dropped())
	}
	// The sink saw everything, with monotone sequence numbers, before any
	// overwrite happened.
	if len(sink.recs) != 10 {
		t.Fatalf("sink saw %d records, want all 10", len(sink.recs))
	}
	for i, r := range sink.recs {
		if r.Seq != uint64(i) || r.Threads != i {
			t.Errorf("sink[%d] = seq %d threads %d", i, r.Seq, r.Threads)
		}
	}
	if tr.Capacity() != 3 {
		t.Errorf("Capacity() = %d", tr.Capacity())
	}
	// Render of a wrapped ring stays well-formed (no blank rows).
	if out := tr.Render(5); strings.Count(out, "\n") != 3 {
		t.Errorf("render of 3-slot ring:\n%s", out)
	}
}

func TestTracerZeroValueStaysUnbounded(t *testing.T) {
	tr := &core.Tracer{}
	for i := 0; i < 500; i++ {
		tr.Emit(core.TraceEvent{At: sim.Time(i), Kind: core.TraceArrive})
	}
	if len(tr.Events()) != 500 || tr.Dropped() != 0 {
		t.Fatalf("zero-value tracer dropped events: len=%d dropped=%d", len(tr.Events()), tr.Dropped())
	}
}

// TestTraceTelemetryReplayStable runs the same seeded workload twice with
// full telemetry on — private registries, bounded rings, JSONL sinks —
// and demands bit-identical streams: observability must not perturb (or
// be perturbed by) the virtual-time schedule.
func TestTraceTelemetryReplayStable(t *testing.T) {
	run := func() (sinkBytes string, render string, dropped uint64, metricsText string) {
		reg := obs.NewRegistry()
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf, 8)
		tr := core.NewTracer(16)
		tr.SetSink(sink)
		cat := tpch.NewCatalog(tpch.Generate(0.005, 1), 1)
		cfg := core.DefaultAQPExecConfig(1e6)
		cfg.Threads = 2
		cfg.Tracer = tr
		cfg.Obs = reg
		exec := core.NewAQPExecutor(cfg, fifoAQP{reserve: true}, nil)
		exec.Submit(buildJob(t, cat, "a", "q6", 0.9, 1e6), 0)
		exec.Submit(buildJob(t, cat, "b", "q12", 0.9, 1e6), 5)
		if err := exec.Run(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), tr.Render(10), tr.Dropped(), reg.RenderText(false)
	}
	s1, r1, d1, m1 := run()
	s2, r2, d2, m2 := run()
	if s1 != s2 {
		t.Errorf("JSONL trace streams differ between identical seeded runs")
	}
	if s1 == "" || !strings.Contains(s1, `"kind":"arrive"`) {
		t.Errorf("trace stream missing arrivals:\n%.300s", s1)
	}
	if r1 != r2 || d1 != d2 {
		t.Errorf("ring state differs: dropped %d vs %d", d1, d2)
	}
	if m1 != m2 {
		t.Errorf("deterministic metrics rendering differs:\n--- first ---\n%s\n--- second ---\n%s", m1, m2)
	}
	if !strings.Contains(m1, "rotary_aqp_arrivals_total 2") {
		t.Errorf("metrics missing arrivals counter:\n%s", m1)
	}
}
