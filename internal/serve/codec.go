// Wire codecs for the serving protocol. Two codecs share one port:
//
//	JSON lines    one JSON object per \n-terminated line — the debug
//	              codec, human-typable with printf | nc, and the default
//	              for compatibility with every existing client.
//	binary        length-prefixed tag-encoded frames — the heavy-traffic
//	              codec: no reflection, no per-field string keys, one
//	              buffered write per reply.
//
// Negotiation is per connection and costs zero round trips: a binary
// client opens with a 4-byte magic whose first byte (0xB1) can never
// begin a JSON value, so the server peeks one byte and knows. Everything
// after the preamble is frames: a 4-byte big-endian payload length, then
// a payload of (tag, value) pairs — one pair per non-zero field, so the
// wire cost tracks the message's information content exactly like
// omitempty JSON does. Unknown tags are a decode error, not a skip:
// both ends of this protocol ship in one binary, and a frame from a
// newer peer failing loudly beats field loss failing silently.
//
// Both servers (single and router) run the same connLoop over whichever
// codec negotiation picks; the loop preserves the JSON protocol's error
// contract — empty input skipped, malformed input answered with a typed
// bad-request on a still-usable connection, oversized input answered
// with too-large and a close (mid-line the stream position is
// unrecoverable; mid-frame it is recoverable, but the symmetric close
// keeps client logic codec-independent).
package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"rotary/internal/codec"
)

// Codec names (ClientConfig.Codec and metric labels).
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// binCodecMagic is the preamble a binary-codec client writes immediately
// after connect. 0xB1 cannot start a JSON line, so one peeked byte
// decides the codec.
var binCodecMagic = [4]byte{0xB1, 'R', 'B', '1'}

// maxFrameBytes bounds one binary frame's payload, mirroring the JSON
// codec's line limit.
const maxFrameBytes = maxLineBytes

// errTooLarge marks input past the codec's size bound: the connection is
// answered with code "too-large" and closed.
var errTooLarge = errors.New("serve: request exceeds size limit")

// midFrameStall bounds how long the server-side binary codec waits for
// the rest of a frame once its length header has arrived. An idle
// connection can wait for a new frame forever — that is the normal
// persistent-connection state — but a peer that sent a header and then
// died (or stalled) mid-frame would otherwise pin a server goroutine
// indefinitely. The deadline applies to the payload bytes only and is
// cleared once the frame completes.
const midFrameStall = 5 * time.Second

// badRequestError marks recoverable malformed input: the connection is
// answered with code "bad-request" and kept open.
type badRequestError struct{ cause error }

func (e badRequestError) Error() string { return e.cause.Error() }

// serverCodec reads client Messages and writes Responses on one
// negotiated connection.
type serverCodec interface {
	Name() string
	ReadMessage() (Message, error)
	WriteResponse(Response) error
}

// clientCodec is the client-side mirror.
type clientCodec interface {
	WriteMessage(Message) error
	ReadResponse() (Response, error)
}

// negotiateServerCodec peeks the first byte of the connection and
// returns the codec the client selected.
func negotiateServerCodec(conn net.Conn) (serverCodec, error) {
	br := bufio.NewReaderSize(conn, 64*1024)
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != binCodecMagic[0] {
		return newJSONServerCodec(br, conn), nil
	}
	var preamble [4]byte
	if _, err := io.ReadFull(br, preamble[:]); err != nil {
		return nil, err
	}
	if preamble != binCodecMagic {
		return nil, fmt.Errorf("serve: bad binary-codec preamble % x", preamble)
	}
	return &binServerCodec{r: br, w: bufio.NewWriterSize(conn, 64*1024), conn: conn, stall: midFrameStall}, nil
}

// jsonServerCodec is the JSON-lines codec: the original protocol,
// unchanged on the wire.
type jsonServerCodec struct {
	sc  *bufio.Scanner
	enc *json.Encoder
}

func newJSONServerCodec(r io.Reader, w io.Writer) *jsonServerCodec {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &jsonServerCodec{sc: sc, enc: json.NewEncoder(w)}
}

func (c *jsonServerCodec) Name() string { return CodecJSON }

func (c *jsonServerCodec) ReadMessage() (Message, error) {
	for c.sc.Scan() {
		line := strings.TrimSpace(c.sc.Text())
		if line == "" {
			continue
		}
		var m Message
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return Message{}, badRequestError{err}
		}
		return m, nil
	}
	if errors.Is(c.sc.Err(), bufio.ErrTooLong) {
		return Message{}, errTooLarge
	}
	if err := c.sc.Err(); err != nil {
		return Message{}, err
	}
	return Message{}, io.EOF
}

func (c *jsonServerCodec) WriteResponse(resp Response) error { return c.enc.Encode(resp) }

// binServerCodec is the length-prefixed binary codec, server side.
type binServerCodec struct {
	r     *bufio.Reader
	w     *bufio.Writer
	conn  net.Conn      // deadline control for the mid-frame stall bound
	stall time.Duration // payload-completion deadline; 0 disables
}

func (c *binServerCodec) Name() string { return CodecBinary }

func (c *binServerCodec) ReadMessage() (Message, error) {
	payload, err := readFrameDeadline(c.r, c.conn, c.stall)
	if err != nil {
		return Message{}, err
	}
	m, derr := decodeMessage(payload)
	if derr != nil {
		return Message{}, badRequestError{derr}
	}
	return m, nil
}

func (c *binServerCodec) WriteResponse(resp Response) error {
	if err := writeFrame(c.w, encodeResponse(resp)); err != nil {
		return err
	}
	return c.w.Flush()
}

// readFrame reads one length-prefixed payload.
func readFrame(r *bufio.Reader) ([]byte, error) {
	return readFrameDeadline(r, nil, 0)
}

// readFrameDeadline is readFrame with a payload-completion bound: once
// the header has committed the peer to a frame, the remaining bytes
// must arrive within stall or the read fails with a deadline error and
// the connection loop closes cleanly. The wait for the header itself is
// unbounded — an idle persistent connection is not a fault.
func readFrameDeadline(r *bufio.Reader, conn net.Conn, stall time.Duration) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, errTooLarge
	}
	if conn != nil && stall > 0 && n > 0 {
		conn.SetReadDeadline(time.Now().Add(stall))
		defer conn.SetReadDeadline(time.Time{})
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeFrame writes one length-prefixed payload (no flush).
func writeFrame(w *bufio.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// connLoop runs one negotiated connection for either server: read a
// request, hand it to handle, write the reply. It returns when the peer
// closes, a read deadline fires, the transport errors, or an oversized
// request forces the close. onCodec (nil ok) observes the negotiated
// codec once; onOversized (nil ok) counts too-large closes.
func connLoop(conn net.Conn, handle func(Message) Response, onCodec func(string), onOversized func()) {
	cc, err := negotiateServerCodec(conn)
	if err != nil {
		return
	}
	if onCodec != nil {
		onCodec(cc.Name())
	}
	for {
		m, err := cc.ReadMessage()
		switch {
		case err == nil:
			if werr := cc.WriteResponse(handle(m)); werr != nil {
				return
			}
		case errors.Is(err, errTooLarge):
			if onOversized != nil {
				onOversized()
			}
			cc.WriteResponse(Response{
				Error: fmt.Sprintf("serve: request line exceeds %d bytes", maxLineBytes),
				Code:  CodeTooLarge,
			})
			return
		case errors.As(err, &badRequestError{}):
			if werr := cc.WriteResponse(Response{Error: "serve: bad request: " + err.Error(), Code: CodeBadRequest}); werr != nil {
				return
			}
		default:
			return
		}
	}
}

// binClientCodec is the client-side binary codec. The preamble is
// written lazily with the first request so a constructed-but-unused
// client costs nothing.
type binClientCodec struct {
	r         *bufio.Reader
	w         *bufio.Writer
	preambled bool
}

func newBinClientCodec(conn net.Conn) *binClientCodec {
	return &binClientCodec{r: bufio.NewReaderSize(conn, 64*1024), w: bufio.NewWriterSize(conn, 64*1024)}
}

func (c *binClientCodec) WriteMessage(m Message) error {
	if !c.preambled {
		if _, err := c.w.Write(binCodecMagic[:]); err != nil {
			return err
		}
		c.preambled = true
	}
	if err := writeFrame(c.w, encodeMessage(m)); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *binClientCodec) ReadResponse() (Response, error) {
	payload, err := readFrame(c.r)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(payload)
}

// jsonClientCodec is the client-side JSON-lines codec.
type jsonClientCodec struct {
	sc  *bufio.Scanner
	enc *json.Encoder
}

func newJSONClientCodec(conn net.Conn) *jsonClientCodec {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &jsonClientCodec{sc: sc, enc: json.NewEncoder(conn)}
}

func (c *jsonClientCodec) WriteMessage(m Message) error { return c.enc.Encode(m) }

func (c *jsonClientCodec) ReadResponse() (Response, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, fmt.Errorf("serve: connection closed mid-request")
	}
	var resp Response
	if err := json.Unmarshal([]byte(strings.TrimSpace(c.sc.Text())), &resp); err != nil {
		return Response{}, fmt.Errorf("serve: bad reply: %w", err)
	}
	return resp, nil
}

// --- binary payload encoding ---------------------------------------------
//
// A payload is a sequence of (tag byte, value) pairs, one per non-zero
// field, written with package codec's appenders and read with its Dec.
// Value shapes by field type: strings are uvarint length + bytes; ints
// are zigzag varints (negative values survive a malicious or buggy peer
// without silent truncation); float64 is its 8 IEEE bytes, little-endian
// like every float Rotary writes, and is sent unless all its bits are
// zero, so NaN, ±Inf and −0 arrive bit for bit; bool is the tag alone
// (presence = true); uint64 is a plain uvarint. The two rare nested
// shapes — the migrate handoff's *JobRecord and the shards report's
// []ShardInfo — ride as length-prefixed JSON sub-payloads: they appear
// on slow-path admin ops only, and reusing the JSON shape keeps one
// source of truth for their fields.

// Message field tags.
const (
	mtOp = iota + 1
	mtID
	mtReqID
	mtServerEpoch
	mtStatement
	mtTenant
	mtShard
	mtJob
	mtBatchRows
	mtSeconds
	mtWall
	mtN
)

// Response field tags.
const (
	rtOK = iota + 1
	rtError
	rtCode
	rtID
	rtStatus
	rtTenant
	rtAccuracy
	rtProgress
	rtBestEffort
	rtVirtualNow
	rtJobs
	rtTerminal
	rtReport
	rtDropped
	rtServerEpoch
	rtRecovered
	rtRetryAfterSecs
	rtShard
	rtShards
	rtJobRecord
)

func encodeMessage(m Message) []byte {
	b := make([]byte, 0, 64)
	if m.Op != "" {
		b = codec.AppendName(append(b, mtOp), m.Op)
	}
	if m.ID != "" {
		b = codec.AppendName(append(b, mtID), m.ID)
	}
	if m.ReqID != "" {
		b = codec.AppendName(append(b, mtReqID), m.ReqID)
	}
	if m.ServerEpoch != 0 {
		b = binary.AppendVarint(append(b, mtServerEpoch), int64(m.ServerEpoch))
	}
	if m.Statement != "" {
		b = codec.AppendName(append(b, mtStatement), m.Statement)
	}
	if m.Tenant != "" {
		b = codec.AppendName(append(b, mtTenant), m.Tenant)
	}
	if m.Shard != 0 {
		b = binary.AppendVarint(append(b, mtShard), int64(m.Shard))
	}
	if m.Job != nil {
		p, _ := json.Marshal(m.Job)
		b = codec.AppendName(append(b, mtJob), string(p))
	}
	if m.BatchRows != 0 {
		b = binary.AppendVarint(append(b, mtBatchRows), int64(m.BatchRows))
	}
	if math.Float64bits(m.Seconds) != 0 {
		b = codec.AppendFloat(append(b, mtSeconds), m.Seconds)
	}
	if m.Wall {
		b = append(b, mtWall)
	}
	if m.N != 0 {
		b = binary.AppendVarint(append(b, mtN), int64(m.N))
	}
	return b
}

func encodeResponse(r Response) []byte {
	b := make([]byte, 0, 128)
	if r.OK {
		b = append(b, rtOK)
	}
	if r.Error != "" {
		b = codec.AppendName(append(b, rtError), r.Error)
	}
	if r.Code != "" {
		b = codec.AppendName(append(b, rtCode), r.Code)
	}
	if r.ID != "" {
		b = codec.AppendName(append(b, rtID), r.ID)
	}
	if r.Status != "" {
		b = codec.AppendName(append(b, rtStatus), r.Status)
	}
	if r.Tenant != "" {
		b = codec.AppendName(append(b, rtTenant), r.Tenant)
	}
	if math.Float64bits(r.Accuracy) != 0 {
		b = codec.AppendFloat(append(b, rtAccuracy), r.Accuracy)
	}
	if math.Float64bits(r.Progress) != 0 {
		b = codec.AppendFloat(append(b, rtProgress), r.Progress)
	}
	if r.BestEffort {
		b = append(b, rtBestEffort)
	}
	if math.Float64bits(r.VirtualNow) != 0 {
		b = codec.AppendFloat(append(b, rtVirtualNow), r.VirtualNow)
	}
	if r.Jobs != 0 {
		b = binary.AppendVarint(append(b, rtJobs), int64(r.Jobs))
	}
	if r.Terminal != 0 {
		b = binary.AppendVarint(append(b, rtTerminal), int64(r.Terminal))
	}
	if r.Report != "" {
		b = codec.AppendName(append(b, rtReport), r.Report)
	}
	if r.Dropped != 0 {
		b = binary.AppendUvarint(append(b, rtDropped), r.Dropped)
	}
	if r.ServerEpoch != 0 {
		b = binary.AppendVarint(append(b, rtServerEpoch), int64(r.ServerEpoch))
	}
	if r.Recovered != 0 {
		b = binary.AppendVarint(append(b, rtRecovered), int64(r.Recovered))
	}
	if math.Float64bits(r.RetryAfterSecs) != 0 {
		b = codec.AppendFloat(append(b, rtRetryAfterSecs), r.RetryAfterSecs)
	}
	if r.Shard != 0 {
		b = binary.AppendVarint(append(b, rtShard), int64(r.Shard))
	}
	if len(r.Shards) != 0 {
		p, _ := json.Marshal(r.Shards)
		b = codec.AppendName(append(b, rtShards), string(p))
	}
	if r.Job != nil {
		p, _ := json.Marshal(r.Job)
		b = codec.AppendName(append(b, rtJobRecord), string(p))
	}
	return b
}

func decodeMessage(b []byte) (Message, error) {
	var m Message
	d := codec.NewDec(b)
	for d.More() {
		switch t := d.Byte(); t {
		case mtOp:
			m.Op = d.Name()
		case mtID:
			m.ID = d.Name()
		case mtReqID:
			m.ReqID = d.Name()
		case mtServerEpoch:
			m.ServerEpoch = int(d.Varint())
		case mtStatement:
			m.Statement = d.Name()
		case mtTenant:
			m.Tenant = d.Name()
		case mtShard:
			m.Shard = int(d.Varint())
		case mtJob:
			var jr JobRecord
			if raw := d.Bytes(); d.Err() == nil {
				if err := json.Unmarshal(raw, &jr); err != nil {
					return m, fmt.Errorf("serve: binary message job record: %w", err)
				}
				m.Job = &jr
			}
		case mtBatchRows:
			m.BatchRows = int(d.Varint())
		case mtSeconds:
			m.Seconds = d.Float()
		case mtWall:
			m.Wall = true
		case mtN:
			m.N = int(d.Varint())
		default:
			return m, fmt.Errorf("serve: unknown binary message tag %d", t)
		}
	}
	return m, d.Err()
}

func decodeResponse(b []byte) (Response, error) {
	var r Response
	d := codec.NewDec(b)
	for d.More() {
		switch t := d.Byte(); t {
		case rtOK:
			r.OK = true
		case rtError:
			r.Error = d.Name()
		case rtCode:
			r.Code = d.Name()
		case rtID:
			r.ID = d.Name()
		case rtStatus:
			r.Status = d.Name()
		case rtTenant:
			r.Tenant = d.Name()
		case rtAccuracy:
			r.Accuracy = d.Float()
		case rtProgress:
			r.Progress = d.Float()
		case rtBestEffort:
			r.BestEffort = true
		case rtVirtualNow:
			r.VirtualNow = d.Float()
		case rtJobs:
			r.Jobs = int(d.Varint())
		case rtTerminal:
			r.Terminal = int(d.Varint())
		case rtReport:
			r.Report = d.Name()
		case rtDropped:
			r.Dropped = d.Uvarint()
		case rtServerEpoch:
			r.ServerEpoch = int(d.Varint())
		case rtRecovered:
			r.Recovered = int(d.Varint())
		case rtRetryAfterSecs:
			r.RetryAfterSecs = d.Float()
		case rtShard:
			r.Shard = int(d.Varint())
		case rtShards:
			if raw := d.Bytes(); d.Err() == nil && len(raw) > 0 {
				if err := json.Unmarshal(raw, &r.Shards); err != nil {
					return r, fmt.Errorf("serve: binary response shards: %w", err)
				}
			}
		case rtJobRecord:
			var jr JobRecord
			if raw := d.Bytes(); d.Err() == nil {
				if err := json.Unmarshal(raw, &jr); err != nil {
					return r, fmt.Errorf("serve: binary response job record: %w", err)
				}
				r.Job = &jr
			}
		default:
			return r, fmt.Errorf("serve: unknown binary response tag %d", t)
		}
	}
	return r, d.Err()
}

// --- listen address specs -------------------------------------------------

// parseListenAddr splits a listener spec into (network, address):
// "tcp:host:port" listens on TCP, "unix:/path" on a Unix socket, and a
// bare path keeps the historical Unix-socket meaning.
func parseListenAddr(spec string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(spec, "tcp:"):
		addr = strings.TrimPrefix(spec, "tcp:")
		if addr == "" {
			return "", "", fmt.Errorf("serve: empty tcp listen address in %q", spec)
		}
		return "tcp", addr, nil
	case strings.HasPrefix(spec, "unix:"):
		addr = strings.TrimPrefix(spec, "unix:")
		if addr == "" {
			return "", "", fmt.Errorf("serve: empty unix socket path in %q", spec)
		}
		return "unix", addr, nil
	case spec == "":
		return "", "", errors.New("serve: empty listen address")
	default:
		return "unix", spec, nil
	}
}

// bindListeners binds the primary Unix socket plus every extra spec,
// closing everything already bound on any failure.
func bindListeners(socket string, extra []string) ([]net.Listener, error) {
	specs := make([]string, 0, 1+len(extra))
	if socket != "" {
		specs = append(specs, "unix:"+socket)
	}
	specs = append(specs, extra...)
	var lns []net.Listener
	fail := func(err error) ([]net.Listener, error) {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	for _, spec := range specs {
		network, addr, err := parseListenAddr(spec)
		if err != nil {
			return fail(err)
		}
		if network == "unix" {
			if err := removeStaleSocket(addr); err != nil {
				return fail(err)
			}
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
	}
	if len(lns) == 0 {
		return nil, errors.New("serve: no listen addresses")
	}
	return lns, nil
}

// listenerSet is the accept side Server and Router share: the bound
// listeners, and the live connections each running connLoop.
type listenerSet struct {
	lnMu  sync.Mutex // guards lns and conns
	lns   []net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // one per live connection
}

// bind binds the primary socket plus every extra spec. The mutex is held
// across bind and publish: a client that got in on the socket before the
// extra listeners were bound sees ListenAddrs block, never a partial set.
func (l *listenerSet) bind(socket string, extra []string) error {
	l.lnMu.Lock()
	defer l.lnMu.Unlock()
	lns, err := bindListeners(socket, extra)
	l.lns = lns
	return err
}

// acceptAll runs connLoop (with its handle, onCodec and onOversized
// arguments) on every connection the bound listeners accept, returning
// once they are all closed.
func (l *listenerSet) acceptAll(handle func(Message) Response, onCodec func(string), onOversized func()) {
	var accept sync.WaitGroup
	for _, ln := range l.lns {
		accept.Add(1)
		go func(ln net.Listener) {
			defer accept.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed by drain/close
				}
				l.lnMu.Lock()
				if l.conns == nil {
					l.conns = make(map[net.Conn]struct{})
				}
				l.conns[conn] = struct{}{}
				l.lnMu.Unlock()
				l.wg.Add(1)
				go func() {
					defer l.wg.Done()
					connLoop(conn, handle, onCodec, onOversized)
					conn.Close()
					l.lnMu.Lock()
					delete(l.conns, conn)
					l.lnMu.Unlock()
				}()
			}
		}(ln)
	}
	accept.Wait()
}

// quiesce unblocks idle readers without cutting off in-flight replies —
// a handler mid-write finishes, then its next read fails and it closes
// its own connection — and waits for every handler to return.
func (l *listenerSet) quiesce() {
	l.lnMu.Lock()
	for c := range l.conns {
		c.SetReadDeadline(time.Now())
	}
	l.lnMu.Unlock()
	l.wg.Wait()
}

// ListenAddrs reports the bound listener addresses, in bind order (the
// Unix socket first). Useful with "tcp:127.0.0.1:0" specs, where the
// kernel picks the port.
func (l *listenerSet) ListenAddrs() []net.Addr {
	l.lnMu.Lock()
	defer l.lnMu.Unlock()
	addrs := make([]net.Addr, 0, len(l.lns))
	for _, ln := range l.lns {
		addrs = append(addrs, ln.Addr())
	}
	return addrs
}

func (l *listenerSet) closeListeners() {
	l.lnMu.Lock()
	for _, ln := range l.lns {
		ln.Close()
	}
	l.lnMu.Unlock()
}
