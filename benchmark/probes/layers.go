package probes

import (
	"fmt"
	"sort"
	"strings"

	"rotary/benchmark/driver"
)

// OpCost is what the round trips of one wire op cost in total, and how
// much of that the daemon spent inside each wrapped layer. Self time is
// the round trip minus those children.
type OpCost struct {
	Op      string
	Count   int
	TotalNS int64
	// AppendNS is journal disk time outside compactions; CompactNS is the
	// compactions' disk time plus the snapshot marshalling before each.
	AppendNS, CompactNS        int64
	CheckpointNS, ArbiterNS    int64
	JournalBytes, JournalSyncs int
	rttMS                      []float64
}

// ChildNS is the time the op's round trips spent in recorded layers.
func (o *OpCost) ChildNS() int64 { return o.AppendNS + o.CompactNS + o.CheckpointNS + o.ArbiterNS }

// Breakdown is a trace folded by interval containment.
type Breakdown struct {
	// Ops holds one row per wire op, in first-seen order; Background
	// collects daemon spans no client round trip contains (pacing ticks,
	// start-up replay, the unobserved aging load).
	Ops        []*OpCost
	Background OpCost

	assignUS      []float64
	pendingSum    int
	grantsSum     int
	fsyncUS       []float64
	fsyncs        int
	writeBytes    int
	compactionMS  []float64
	ckptWrites    int
	ckptBytes     int
	ckptNS        int64
	arbiterNS     int64
	clientTotalNS int64
}

// op finds the row of a wire op; an op the trace never saw reads as an
// empty row.
func (b *Breakdown) op(name string) *OpCost {
	for _, o := range b.Ops {
		if o.Op == name {
			return o
		}
	}
	return &OpCost{Op: name}
}

// Analyze folds a trace: each daemon span is charged to the client span
// whose interval contains its start. The twin drives one connection at a
// time, so client spans never overlap and the assignment is unambiguous.
func Analyze(spans []Span) *Breakdown {
	var clients, inner []Span
	for _, s := range spans {
		if s.Layer == LayerClient {
			clients = append(clients, s)
		} else {
			inner = append(inner, s)
		}
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].StartNS < clients[j].StartNS })
	sort.Slice(inner, func(i, j int) bool { return inner[i].StartNS < inner[j].StartNS })

	b := &Breakdown{}
	owners := make([]*OpCost, len(clients))
	for i, c := range clients {
		o := b.op(c.Op)
		if o.Count == 0 {
			b.Ops = append(b.Ops, o)
		}
		o.Count++
		o.TotalNS += c.Dur().Nanoseconds()
		o.rttMS = append(o.rttMS, float64(c.Dur().Nanoseconds())/1e6)
		b.clientTotalNS += c.Dur().Nanoseconds()
		owners[i] = o
	}
	ci := 0
	// A compaction runs inside Journal.Append, right after the append's own
	// fsync: fold the state into a snapshot record, then open-tmp, write,
	// sync, rename, syncdir. The fold is CPU the disk layer never sees, but
	// nothing else runs between that fsync's return and the temp file's
	// open, so the gap is charged to the compaction.
	var compactStart int64 = -1 // start of the compaction in progress
	var appendSyncEnd int64 = -1
	for _, s := range inner {
		for ci < len(clients) && clients[ci].EndNS < s.StartNS {
			ci++
		}
		owner := &b.Background
		if ci < len(clients) && clients[ci].StartNS <= s.StartNS {
			owner = owners[ci]
		}
		d := s.Dur().Nanoseconds()
		switch s.Layer {
		case LayerArbiter:
			owner.ArbiterNS += d
			b.arbiterNS += d
			b.assignUS = append(b.assignUS, float64(d)/1e3)
			b.pendingSum += s.N
			b.grantsSum += s.Grants
		case LayerCheckpoint:
			owner.CheckpointNS += d
			b.ckptNS += d
			if s.Op == "write" {
				b.ckptBytes += s.N
				b.writeBytes += s.N
			}
			if s.Op == "rename" {
				b.ckptWrites++
			}
			if s.Op == "sync" || s.Op == "syncdir" {
				b.fsyncs++
			}
		case LayerJournal:
			// The syncdir carries no mark of its own: the open arms it.
			inCompaction := s.Compaction || (s.Op == "syncdir" && compactStart >= 0)
			if s.Compaction && s.Op == "open" {
				compactStart = s.StartNS
				if appendSyncEnd >= 0 {
					owner.CompactNS += s.StartNS - appendSyncEnd
					compactStart = appendSyncEnd
				}
			}
			appendSyncEnd = -1
			if s.Op == "sync" && !inCompaction {
				appendSyncEnd = s.EndNS
			}
			if inCompaction {
				owner.CompactNS += d
			} else {
				owner.AppendNS += d
			}
			if s.Op == "syncdir" && compactStart >= 0 {
				b.compactionMS = append(b.compactionMS, float64(s.EndNS-compactStart)/1e6)
				compactStart = -1
			}
			switch s.Op {
			case "write":
				b.writeBytes += s.N
				if !inCompaction {
					owner.JournalBytes += s.N
				}
			case "sync":
				b.fsyncs++
				if !inCompaction {
					owner.JournalSyncs++
					b.fsyncUS = append(b.fsyncUS, float64(d)/1e3)
				}
			case "syncdir":
				b.fsyncs++
			}
		}
	}
	return b
}

// quantile sorts in place and reads q.
func quantile(sample []float64, q float64) float64 {
	sort.Float64s(sample)
	return driver.Quantile(sample, q)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Metrics renders the span-derived per-layer metrics. codecRTTUS is the
// idle-server round trip of the codec the workload's load used: the part
// of every request that is wire, framing and the ring hop.
func (b *Breakdown) Metrics(codecRTTUS float64) map[string]float64 {
	submit := b.op("submit")
	submits := float64(submit.Count)
	meanUS := func(ns int64) float64 { return ratio(float64(ns)/1e3, submits) }
	var engineSelfNS int64
	for _, name := range []string{"advance", "drain"} {
		o := b.op(name)
		engineSelfNS += o.TotalNS - o.ChildNS()
	}
	m := map[string]float64{
		"serve.ingress.other_us":          meanUS(submit.TotalNS-submit.ChildNS()) - codecRTTUS,
		"serve.journal.bytes_per_submit":  ratio(float64(submit.JournalBytes), submits),
		"serve.journal.syncs_per_submit":  ratio(float64(submit.JournalSyncs), submits),
		"serve.journal.compactions":       float64(len(b.compactionMS)),
		"serve.journal.compaction_p50_ms": quantile(b.compactionMS, 0.5),
		"serve.journal.disk_share":        ratio(float64(submit.AppendNS+submit.CompactNS), float64(submit.TotalNS)),
		"diskio.fsync_p50_us":             quantile(b.fsyncUS, 0.5),
		"diskio.fsync_count":              float64(b.fsyncs),
		"diskio.write_bytes":              float64(b.writeBytes),
		"core.arbiter.calls":              float64(len(b.assignUS)),
		"core.arbiter.assign_p50_us":      quantile(b.assignUS, 0.5),
		"core.arbiter.assign_total_ms":    float64(b.arbiterNS) / 1e6,
		"core.arbiter.pending_mean":       ratio(float64(b.pendingSum), float64(len(b.assignUS))),
		"core.arbiter.grants_per_call":    ratio(float64(b.grantsSum), float64(len(b.assignUS))),
		"core.exec.advance_p50_ms":        quantile(b.op("advance").rttMS, 0.5),
		"core.exec.other_ms_total":        float64(engineSelfNS) / 1e6,
		"core.checkpoint.writes":          float64(b.ckptWrites),
		"core.checkpoint.disk_ms_total":   float64(b.ckptNS) / 1e6,
		"core.checkpoint.bytes_per_write": ratio(float64(b.ckptBytes), float64(b.ckptWrites)),
	}
	if submits == 0 {
		m["serve.ingress.other_us"] = 0
	}
	return m
}

// Cost is one named share of the traced round-trip total.
type Cost struct {
	Name string
	MS   float64
}

// Costs splits the traced client round-trip total into the recorded
// layers and the two named residuals: what is left of the request ops
// (submit, status and the rest) is the front end, what is left of the
// engine ops (advance, drain) is the executor's data path and event
// loop. The rows sum to the total by construction; Table shows it.
func (b *Breakdown) Costs() (rows []Cost, totalMS float64) {
	var appendNS, compactNS, ckptNS, arbNS, frontNS, engineNS int64
	for _, o := range b.Ops {
		appendNS += o.AppendNS
		compactNS += o.CompactNS
		ckptNS += o.CheckpointNS
		arbNS += o.ArbiterNS
		if o.Op == "advance" || o.Op == "drain" {
			engineNS += o.TotalNS - o.ChildNS()
		} else {
			frontNS += o.TotalNS - o.ChildNS()
		}
	}
	rows = []Cost{
		{"journal append+fsync (diskio)", float64(appendNS) / 1e6},
		{"journal compaction (serve.journal: snapshot fold + rewrite)", float64(compactNS) / 1e6},
		{"checkpoint I/O (core.checkpoint)", float64(ckptNS) / 1e6},
		{"arbitration (core.arbiter)", float64(arbNS) / 1e6},
		{"front-end residual (serve.codec + serve.ingress.other)", float64(frontNS) / 1e6},
		{"engine residual (core.exec.other: AQP data path, event loop)", float64(engineNS) / 1e6},
	}
	return rows, float64(b.clientTotalNS) / 1e6
}

// Table renders the per-op layer table and the ranked cost rows.
func (b *Breakdown) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-10s %7s %11s %11s %11s %11s %11s %11s\n",
		"op", "count", "total_ms", "append_ms", "compact_ms", "ckpt_ms", "arbiter_ms", "self_ms")
	row := func(o *OpCost) {
		fmt.Fprintf(&sb, "  %-10s %7d %11.2f %11.2f %11.2f %11.2f %11.2f %11.2f\n", o.Op, o.Count,
			float64(o.TotalNS)/1e6, float64(o.AppendNS)/1e6, float64(o.CompactNS)/1e6,
			float64(o.CheckpointNS)/1e6, float64(o.ArbiterNS)/1e6, float64(o.TotalNS-o.ChildNS())/1e6)
	}
	for _, o := range b.Ops {
		row(o)
	}
	bg := b.Background
	bg.Op, bg.TotalNS = "(outside)", bg.ChildNS()
	row(&bg)
	rows, total := b.Costs()
	sum := 0.0
	for _, r := range rows {
		sum += r.MS
	}
	fmt.Fprintf(&sb, "  layer rows sum to %.2f ms of %.2f ms traced round-trip total\n", sum, total)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].MS > rows[j].MS })
	for i, r := range rows[:2] {
		fmt.Fprintf(&sb, "  top cost %d: %s, %.2f ms (%.0f%% of total)\n", i+1, r.Name, r.MS, 100*ratio(r.MS, total))
	}
	return sb.String()
}
