package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"
)

// binFrame wraps a payload in the binary codec's length prefix.
func binFrame(payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// runConnLoop serves one scripted byte stream through the real
// connection loop and returns every reply frame the server wrote. The
// watchdog converts a wedged loop — the failure mode the codec must
// never have, no matter the input — into a test failure instead of a
// hang.
func runConnLoop(t *testing.T, stream []byte) []byte {
	t.Helper()
	srv, cli := net.Pipe()
	defer cli.Close()

	done := make(chan struct{})
	go func() {
		defer srv.Close()
		connLoop(srv, func(m Message) Response {
			return Response{OK: true, ID: m.ID}
		}, nil, nil)
		close(done)
	}()

	var replies bytes.Buffer
	drained := make(chan struct{})
	go func() {
		io.Copy(&replies, cli)
		close(drained)
	}()
	cli.Write(stream)
	// Half-close is not a pipe concept: closing cli ends both directions,
	// so give in-flight replies a moment before cutting the stream.
	time.Sleep(10 * time.Millisecond)
	cli.Close()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("connLoop wedged: did not return within 5s of the peer closing")
	}
	<-drained
	return replies.Bytes()
}

// TestBinaryCodecMidFrameDropClosesCleanly: a peer that commits to a
// frame with a length header and then drops mid-payload must produce a
// clean connection close — no reply, no panic, no stuck goroutine.
func TestBinaryCodecMidFrameDropClosesCleanly(t *testing.T) {
	payload := encodeMessage(Message{Op: "health"})
	stream := append(append([]byte{}, binCodecMagic[:]...), binFrame(payload)[:4+len(payload)/2]...)
	if replies := runConnLoop(t, stream); len(replies) != 0 {
		t.Fatalf("dropped mid-frame but got %d reply bytes", len(replies))
	}
}

// TestBinaryCodecStalledPeerTimesOut: a peer that sends a frame header
// and then stalls without closing must hit the mid-frame deadline — the
// read fails with a timeout instead of pinning the server goroutine
// forever.
func TestBinaryCodecStalledPeerTimesOut(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	cc := &binServerCodec{
		r:     bufio.NewReader(srv),
		w:     bufio.NewWriter(srv),
		conn:  srv,
		stall: 50 * time.Millisecond,
	}

	payload := encodeMessage(Message{Op: "health"})
	go cli.Write(binFrame(payload)[:4+1]) // header plus one byte, then silence

	errc := make(chan error, 1)
	go func() {
		_, err := cc.ReadMessage()
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("stalled mid-frame read succeeded")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled peer produced %v, want deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mid-frame stall not bounded: ReadMessage still blocked after 5s")
	}
}

// TestBinaryCodecDeadlineClearsAfterFrame: the stall bound applies to
// payload completion only. A healthy frame followed by an idle gap
// longer than the stall, then another frame, must both be served — the
// deadline must not leak into the between-frames wait.
func TestBinaryCodecDeadlineClearsAfterFrame(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	cc := &binServerCodec{
		r:     bufio.NewReader(srv),
		w:     bufio.NewWriter(srv),
		conn:  srv,
		stall: 50 * time.Millisecond,
	}

	go func() {
		cli.Write(binFrame(encodeMessage(Message{Op: "health", ID: "first"})))
		time.Sleep(150 * time.Millisecond) // idle longer than the stall bound
		cli.Write(binFrame(encodeMessage(Message{Op: "health", ID: "second"})))
	}()

	for _, want := range []string{"first", "second"} {
		m, err := cc.ReadMessage()
		if err != nil {
			t.Fatalf("frame %q: %v", want, err)
		}
		if m.ID != want {
			t.Fatalf("read frame %q, want %q", m.ID, want)
		}
	}
}

// FuzzBinaryFrame: arbitrary bytes after the binary preamble — valid
// frames, truncated headers, torn payloads, hostile lengths, garbage
// tags — must never panic or wedge the connection loop: every input
// ends in some number of well-formed reply frames and a clean close.
// Decoded messages additionally round-trip: re-encoding and re-decoding
// what decodeMessage accepted reproduces the same message.
func FuzzBinaryFrame(f *testing.F) {
	valid := encodeMessage(Message{Op: "submit", ID: "q1", ReqID: "r1", Statement: "q5 ACC MIN 80% WITHIN 900 SECONDS"})
	f.Add(binFrame(valid))                             // one healthy frame
	f.Add(binFrame(valid)[:2])                         // truncated header
	f.Add(binFrame(valid)[:4+len(valid)/2])            // torn payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})              // hostile length: 4 GiB claim
	f.Add(binFrame([]byte{0xEE}))                      // unknown tag
	f.Add(binFrame([]byte{mtOp, 0x85}))                // truncated uvarint length
	f.Add(binFrame(nil))                               // empty frame
	f.Add(append(binFrame(valid), binFrame(valid)...)) // two frames back to back
	corrupt := binFrame(valid)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt) // bit flip mid-frame

	f.Fuzz(func(t *testing.T, stream []byte) {
		replies := runConnLoop(t, append(binCodecMagic[:], stream...))

		// Every reply the server wrote must itself be a parseable frame
		// stream: whole frames that decode, with nothing left over.
		r := bufio.NewReader(bytes.NewReader(replies))
		for {
			payload, err := readFrame(r)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("server wrote a malformed reply frame: %v", err)
			}
			if _, err := decodeResponse(payload); err != nil {
				t.Fatalf("server reply payload does not decode: %v", err)
			}
		}

		// Round-trip property on the request side: anything decodeMessage
		// accepts must encode back to an equivalent message.
		fr := bufio.NewReader(bytes.NewReader(stream))
		for {
			payload, err := readFrame(fr)
			if err != nil {
				break
			}
			m, err := decodeMessage(payload)
			if err != nil {
				continue
			}
			again, err := decodeMessage(encodeMessage(m))
			if err != nil {
				t.Fatalf("re-encoded message does not decode: %v", err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatalf("message round-trip diverged:\n got %+v\nwant %+v", again, m)
			}
		}
	})
}
