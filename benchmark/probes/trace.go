package probes

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"rotary/internal/core"
	"rotary/internal/diskio"
)

// Span layers. A client span is one wire round trip seen by the load
// generator; the others are recorded inside the daemon's process, at the
// two interfaces the daemon lets a caller wrap.
const (
	LayerClient     = "client"
	LayerJournal    = "disk.journal"
	LayerCheckpoint = "disk.ckpt"
	LayerArbiter    = "arbiter"
)

// Span is one timed call at a layer boundary. The twin runs one client
// connection and the daemon one driver goroutine, so spans nest by
// interval containment: a daemon span belongs to the client span whose
// interval holds it.
type Span struct {
	Layer string `json:"layer"`
	// Op is the wire op of a client span, the file operation of a disk
	// span ("write", "sync", "rename", …), "assign" for the arbiter.
	Op string `json:"op"`
	// StartNS and EndNS count from the recorder's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Conn is the client connection of a client span.
	Conn int `json:"conn,omitempty"`
	// N is the span's size: bytes written, or jobs pending at an assign.
	N int `json:"n,omitempty"`
	// Grants is how many grants an assign returned.
	Grants int `json:"grants,omitempty"`
	// Compaction marks the disk spans of a journal compaction: the
	// temp-file open, write and fsync, and the rename that publishes it.
	// The directory fsync that follows the rename belongs to it too.
	Compaction bool `json:"compaction,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty trace.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// add records a span that started at start and ends now.
func (r *Recorder) add(s Span, start time.Time) { r.addEnded(s, start, time.Now()) }

func (r *Recorder) addEnded(s Span, start, end time.Time) {
	s.StartNS = start.Sub(r.epoch).Nanoseconds()
	s.EndNS = end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Client is the driver.Observer that records client round trips.
func (r *Recorder) Client(op string, conn int, start, end time.Time) {
	r.addEnded(Span{Layer: LayerClient, Op: op, Conn: conn}, start, end)
}

// Spans returns the trace so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSched records every Assign of the policy it wraps.
type tracedSched struct {
	core.AQPScheduler
	rec *Recorder
}

func (t tracedSched) Assign(ctx *core.AQPContext) []core.AQPGrant {
	start := time.Now()
	grants := t.AQPScheduler.Assign(ctx)
	t.rec.add(Span{Layer: LayerArbiter, Op: "assign", N: len(ctx.Pending), Grants: len(grants)}, start)
	return grants
}

// tracedIO records every operation of the disk layer it wraps, split by
// whether the path belongs to the journal or to the checkpoint store.
type tracedIO struct {
	diskio.IO
	rec *Recorder
}

// NewTracedIO wraps the real filesystem.
func NewTracedIO(rec *Recorder) diskio.IO { return tracedIO{IO: diskio.OS{}, rec: rec} }

func layerOf(path string) string {
	if strings.Contains(path, "/ckpt/") || strings.HasSuffix(path, "/ckpt") {
		return LayerCheckpoint
	}
	return LayerJournal
}

// isCompaction reports whether a journal-layer path is the temp file a
// compaction publishes; checkpoints use the same protocol on every save,
// so the mark is only meaningful on the journal layer.
func isCompaction(layer, path string) bool {
	return layer == LayerJournal && strings.HasSuffix(path, ".tmp")
}

func (t tracedIO) OpenFile(name string, flag int, perm os.FileMode) (diskio.File, error) {
	start := time.Now()
	f, err := t.IO.OpenFile(name, flag, perm)
	layer := layerOf(name)
	t.rec.add(Span{Layer: layer, Op: "open", Compaction: isCompaction(layer, name)}, start)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, rec: t.rec, layer: layer, compaction: isCompaction(layer, name)}, nil
}

func (t tracedIO) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.IO.ReadFile(name)
	t.rec.add(Span{Layer: layerOf(name), Op: "read", N: len(b)}, start)
	return b, err
}

func (t tracedIO) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.IO.Rename(oldpath, newpath)
	layer := layerOf(newpath)
	t.rec.add(Span{Layer: layer, Op: "rename", Compaction: isCompaction(layer, oldpath)}, start)
	return err
}

func (t tracedIO) Remove(name string) error {
	start := time.Now()
	err := t.IO.Remove(name)
	t.rec.add(Span{Layer: layerOf(name), Op: "remove"}, start)
	return err
}

func (t tracedIO) SyncDir(dir string) error {
	start := time.Now()
	err := t.IO.SyncDir(dir)
	t.rec.add(Span{Layer: layerOf(dir), Op: "syncdir"}, start)
	return err
}

type tracedFile struct {
	diskio.File
	rec        *Recorder
	layer      string
	compaction bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.rec.add(Span{Layer: f.layer, Op: "write", N: n, Compaction: f.compaction}, start)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.add(Span{Layer: f.layer, Op: "sync", Compaction: f.compaction}, start)
	return err
}
