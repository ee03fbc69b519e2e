package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientStalledServerTimeout: a server that accepts connections but
// never replies must surface as a typed ErrTimeout within the
// configured bound — never an indefinite hang.
func TestClientStalledServerTimeout(t *testing.T) {
	socket := filepath.Join(t.TempDir(), "stall.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, read nothing, reply never
		}
	}()

	cl, err := NewClient(ClientConfig{
		Socket:         socket,
		Backoff:        5 * time.Millisecond,
		Attempts:       2,
		RequestTimeout: 75 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()

	start := time.Now()
	_, err = cl.Do(Message{Op: "health"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("Do succeeded against a stalled server")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled server produced %v, want errors.Is(err, ErrTimeout)", err)
	}
	// 2 attempts x 75ms, plus backoff and slack: well under 5s either way.
	if elapsed > 5*time.Second {
		t.Fatalf("timed out after %v, deadline not enforced", elapsed)
	}
}

// degradedScriptServer is a scripted protocol server for the retry
// tests: it answers the resume handshake, refuses the first `refuse`
// non-resume requests with journal-degraded (plus a tiny retry hint),
// then answers OK. It counts the refusals it dealt.
func degradedScriptServer(t *testing.T, refuse int32) (string, *atomic.Int32) {
	t.Helper()
	socket := filepath.Join(t.TempDir(), "degraded.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var refused atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					var m Message
					if json.Unmarshal(sc.Bytes(), &m) != nil {
						return
					}
					var resp Response
					switch {
					case m.Op == "resume":
						resp = Response{OK: true, ServerEpoch: 1}
					case refused.Load() < refuse:
						refused.Add(1)
						resp = Response{
							Error:          "serve: journal degraded: injected",
							Code:           CodeJournalDegraded,
							RetryAfterSecs: 0.005,
						}
					default:
						resp = Response{OK: true, ID: m.ID, Status: "running"}
					}
					b, _ := json.Marshal(resp)
					if _, err := conn.Write(append(b, '\n')); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return socket, &refused
}

// TestClientRetriesJournalDegraded: with RetryHinted, a journal-degraded
// refusal is transient — the client sleeps the server's retry_after_secs
// hint and re-sends, outliving the fault window without surfacing an
// error. The degradation here is scripted to clear after two refusals,
// standing in for the server-side heal prober lifting the latch.
func TestClientRetriesJournalDegraded(t *testing.T) {
	socket, refused := degradedScriptServer(t, 2)
	cl, err := NewClient(ClientConfig{
		Socket:      socket,
		RetryHinted: true,
		Attempts:    5,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Do(Message{Op: "submit", ID: "j1", ReqID: "r1", Statement: "q5 ACC MIN 80% WITHIN 900 SECONDS"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !resp.OK || resp.Code == CodeJournalDegraded {
		t.Fatalf("retry did not outlive the degraded window: %+v", resp)
	}
	if got := refused.Load(); got != 2 {
		t.Fatalf("server refused %d times, want 2", got)
	}
}

// TestClientJournalDegradedSurfacedWithoutOptIn: without RetryHinted the
// typed refusal is surfaced on the first reply (nil error, Code set) so
// callers keep full control over degraded-mode policy.
func TestClientJournalDegradedSurfacedWithoutOptIn(t *testing.T) {
	socket, refused := degradedScriptServer(t, 1<<30)
	cl, err := NewClient(ClientConfig{Socket: socket, Attempts: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	resp, err := cl.Do(Message{Op: "submit", ID: "j1", Statement: "q5 ACC MIN 80% WITHIN 900 SECONDS"})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Code != CodeJournalDegraded {
		t.Fatalf("want the typed refusal surfaced, got %+v", resp)
	}
	if resp.RetryAfterSecs <= 0 {
		t.Fatalf("degraded refusal carried no retry hint: %+v", resp)
	}
	if got := refused.Load(); got != 1 {
		t.Fatalf("client retried %d times without opt-in, want exactly 1 refusal", got)
	}
}

// TestClientRequestTimeoutDisabled: a negative RequestTimeout disables
// the deadline — the round trip against a healthy server succeeds.
func TestClientRequestTimeoutDisabled(t *testing.T) {
	d := newDaemon(t, daemon{})
	d.start(t)

	cl, err := NewClient(ClientConfig{Socket: d.socket, RequestTimeout: -1})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cl.Close()
	if r, err := cl.Do(Message{Op: "health"}); err != nil || !r.OK {
		t.Fatalf("health with disabled deadline: %v %+v", err, r)
	}
}
