package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rotary/internal/admission"
	"rotary/internal/serve"
	"rotary/internal/tpch"
	"rotary/internal/workload"
)

// A sharded daemon keeps each shard's seeded history in that shard's
// state directory: the first boot seeds every shard and writes its file,
// and a restart over the same directory loads every shard's instead.
func TestShardRestartLoadsSeededHistory(t *testing.T) {
	base := t.TempDir()
	const shards = 2
	o := shardedOpts{
		stackOpts: stackOpts{
			ds:     tpch.Generate(0.005, 1),
			seed:   1,
			policy: "rr",
			admit:  admission.Reject,
		},
		socket:     filepath.Join(base, "r.sock"),
		journalDir: filepath.Join(base, "state"),
		shards:     shards,
		traceRing:  64,
	}
	for _, boot := range []string{"seeded", "loaded"} {
		r, err := serve.NewRouter(serve.RouterConfig{
			Socket: o.socket,
			Shards: o.shards,
			Dir:    o.journalDir,
			Build:  shardBuilder(o),
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- r.Serve() }()
		<-r.Ready()
		cl, err := serve.NewClient(serve.ClientConfig{Socket: o.socket})
		if err != nil {
			t.Fatal(err)
		}
		met, err := cl.Do(serve.Message{Op: "metrics"})
		cl.Close()
		r.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err != nil || !met.OK {
			t.Fatalf("%s boot: metrics %+v, %v", boot, met, err)
		}
		for i := 0; i < shards; i++ {
			for _, kind := range []string{"seeded", "loaded"} {
				want := 0
				if kind == boot {
					want = 1
				}
				line := fmt.Sprintf("rotary_serve_history_%s_total{shard=\"%d\"} %d\n", kind, i, want)
				if !strings.Contains(met.Report, line) {
					t.Errorf("%s boot: no line %q in the metrics", boot, strings.TrimSpace(line))
				}
			}
			if _, err := os.Stat(filepath.Join(serve.ShardDir(o.journalDir, i), workload.SeededHistoryFile)); err != nil {
				t.Errorf("%s boot: shard %d: %v", boot, i, err)
			}
		}
	}
}
