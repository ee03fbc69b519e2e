package probes

import "testing"

// TestAnalyzeContainment builds a trace by hand: one submit whose append
// triggers a compaction, one advance with an assign and a checkpoint
// write, and a tick's fsync between requests.
func TestAnalyzeContainment(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	span := func(layer, op string, start, end int64) Span {
		return Span{Layer: layer, Op: op, StartNS: us(start), EndNS: us(end)}
	}
	compaction := func(op string, start, end int64) Span {
		s := span(LayerJournal, op, start, end)
		s.Compaction = true
		return s
	}
	write := span(LayerJournal, "write", 10, 20)
	write.N = 300
	assign := span(LayerArbiter, "assign", 1010, 1030)
	assign.N, assign.Grants = 12, 2
	spans := []Span{
		span(LayerClient, "submit", 0, 1000),
		write,
		span(LayerJournal, "sync", 20, 120),
		// 120..400 is the snapshot fold: no span, charged to the compaction.
		compaction("open", 400, 410),
		compaction("write", 410, 500),
		compaction("sync", 500, 700),
		compaction("rename", 700, 710),
		span(LayerJournal, "syncdir", 710, 800),
		span(LayerClient, "advance", 1000, 2000),
		assign,
		span(LayerCheckpoint, "write", 1100, 1150),
		span(LayerCheckpoint, "sync", 1150, 1300),
		span(LayerCheckpoint, "rename", 1300, 1310),
		span(LayerJournal, "sync", 2500, 2600), // a tick, between requests
	}
	b := Analyze(spans)
	submit, advance := b.op("submit"), b.op("advance")
	if submit.AppendNS != us(110) || submit.CompactNS != us(680) || submit.JournalBytes != 300 || submit.JournalSyncs != 1 {
		t.Errorf("submit: append %d compact %d bytes %d syncs %d", submit.AppendNS, submit.CompactNS, submit.JournalBytes, submit.JournalSyncs)
	}
	if advance.ArbiterNS != us(20) || advance.CheckpointNS != us(210) {
		t.Errorf("advance: arbiter %d checkpoint %d", advance.ArbiterNS, advance.CheckpointNS)
	}
	if b.Background.AppendNS != us(100) {
		t.Errorf("background append %d", b.Background.AppendNS)
	}
	m := b.Metrics(50)
	for name, want := range map[string]float64{
		"serve.journal.compactions":       1,
		"serve.journal.compaction_p50_ms": 0.68,
		"serve.ingress.other_us":          1000 - 790 - 50,
		"core.arbiter.pending_mean":       12,
		"core.checkpoint.writes":          1,
		"core.exec.other_ms_total":        0.77,
		"diskio.fsync_count":              5,
	} {
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	rows, total := b.Costs()
	sum := 0.0
	for _, r := range rows {
		sum += r.MS
	}
	if sum < total-1e-9 || sum > total+1e-9 {
		t.Errorf("cost rows sum to %g ms, traced total is %g ms", sum, total)
	}
}
