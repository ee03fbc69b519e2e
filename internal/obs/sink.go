package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// TraceRecord is the sink-facing form of one arbitration trace event. At
// is virtual seconds; Seq is the emitting tracer's monotone sequence
// number, so downstream consumers can detect gaps when the in-memory
// ring drops events.
type TraceRecord struct {
	Seq     uint64  `json:"seq"`
	At      float64 `json:"at"`
	Kind    string  `json:"kind"`
	Job     string  `json:"job,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
	Threads int     `json:"threads,omitempty"`
	Device  int     `json:"device,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// TraceSink receives a stream of trace records. Implementations must be
// safe for concurrent use; WriteTrace should be cheap (buffered) and
// Flush must force everything written so far to the underlying medium.
type TraceSink interface {
	WriteTrace(TraceRecord) error
	Flush() error
}

// JSONLSink streams trace records as one JSON object per line through a
// buffered writer, flushing every flushEvery records (and on Flush/Close).
// Errors are sticky: after the first write failure every subsequent call
// returns the same error and the sink stops writing.
type JSONLSink struct {
	mu         sync.Mutex
	w          *bufio.Writer
	closer     io.Closer
	flushEvery int
	pending    int
	written    int64
	err        error
}

// NewJSONLSink wraps w. flushEvery <= 0 selects the default of 64
// records between flushes.
func NewJSONLSink(w io.Writer, flushEvery int) *JSONLSink {
	if flushEvery <= 0 {
		flushEvery = 64
	}
	s := &JSONLSink{w: bufio.NewWriter(w), flushEvery: flushEvery}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// OpenJSONLSink creates (truncating) path and returns a sink writing to it.
func OpenJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f, 0), nil
}

// WriteTrace appends one record.
func (s *JSONLSink) WriteTrace(rec TraceRecord) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
		return err
	}
	s.written++
	s.pending++
	if s.pending >= s.flushEvery {
		s.pending = 0
		if err := s.w.Flush(); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// Flush forces buffered records to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.pending = 0
	if err := s.w.Flush(); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Written reports the number of records accepted so far.
func (s *JSONLSink) Written() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Close flushes and, if the underlying writer is an io.Closer (as with
// OpenJSONLSink), closes it. Errors being sticky, it also reports the
// first write that failed earlier — the one a Tracer stops writing on —
// so a caller checking Close knows whether the whole stream landed.
func (s *JSONLSink) Close() error {
	if s == nil {
		return nil
	}
	err := s.Flush()
	s.mu.Lock()
	c := s.closer
	s.closer = nil
	s.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
