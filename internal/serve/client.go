// Resilient client: the connection layer that makes the durable arbiter
// usable from a process that outlives daemon restarts. It reconnects
// with capped exponential backoff when the socket drops (the daemon was
// killed, is restarting, or has not bound yet), re-runs the resume
// handshake on every new connection to detect restarts via the server
// epoch, and retries the in-flight request on the fresh connection —
// which is safe for submits exactly because the protocol dedupes
// client-supplied req_ids against the journal.
package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrTimeout is wrapped into every error caused by a request exceeding
// RequestTimeout (or the dial timeout), so callers can branch on
// errors.Is(err, ErrTimeout) instead of string-matching — a stalled or
// wedged server surfaces as a typed timeout, never an indefinite hang.
var ErrTimeout = errors.New("serve: request timed out")

// dialTimeout bounds each connection attempt.
const dialTimeout = time.Second

// maxRetryAfter caps a server-supplied retry hint so a pathological reply
// cannot stall the client.
const maxRetryAfter = 5 * time.Second

// ClientConfig parameterizes a resilient client.
type ClientConfig struct {
	// Socket is the server's listen address: a Unix socket path, or a
	// "tcp:host:port" / "unix:/path" spec (the server's Listeners
	// syntax).
	Socket string
	// Codec selects the wire format: CodecJSON (the default — one JSON
	// object per line, human-readable with socat) or CodecBinary (the
	// length-prefixed framing, negotiated by preamble). The server
	// accepts either on every listener.
	Codec string
	// Backoff is the initial reconnect delay, doubling per failed attempt
	// up to MaxBackoff. Defaults to 50ms.
	Backoff time.Duration
	// MaxBackoff caps the reconnect delay. Defaults to 2s.
	MaxBackoff time.Duration
	// Attempts bounds how many connections one request may be tried on
	// before Do gives up (each attempt may first reconnect). Defaults
	// to 8.
	Attempts int
	// RequestTimeout bounds one round trip on an established connection:
	// the request write plus the reply read. On expiry the attempt fails
	// with an error wrapping ErrTimeout, the connection is dropped, and Do
	// retries (a fresh connection re-runs the resume handshake, so a
	// restarted server is detected, a wedged one keeps timing out). Zero
	// defaults to 30s — a deliberately generous "never forever" bound;
	// negative disables the deadline entirely.
	RequestTimeout time.Duration
	// RetryHinted makes Do treat hint-carrying transient refusals —
	// shard-unavailable, overloaded, and journal-degraded — as
	// retryable: instead of surfacing the typed refusal immediately, it
	// sleeps for the server's retry_after_secs hint (the supervisor's
	// restart horizon, the overload drain estimate, or the journal
	// heal-probe cadence — not a blind exponential guess) and re-sends,
	// up to Attempts. The reply's own hint replaces the reconnect
	// backoff for that retry; if every attempt stays refused the last
	// typed reply is returned with a nil error so callers can still
	// branch on Code.
	RetryHinted bool
	// RetryOverQuota extends RetryHinted to tenant-quota refusals: an
	// over-quota submit sleeps for the admission controller's deficit
	// hint and retries. Off by default — quota pushback is a correctness
	// signal most callers should surface, not absorb.
	RetryOverQuota bool
}

// Client is a reconnecting serve-protocol client. It is safe for
// concurrent use; requests are serialized over one connection.
type Client struct {
	cfg ClientConfig

	mu    sync.Mutex
	conn  net.Conn
	codec clientCodec
	// serverEpoch is the daemon incarnation last observed via the resume
	// handshake; restarts counts the epoch changes the handshakes have
	// witnessed.
	serverEpoch int
	restarts    int
}

// NewClient builds a client for the socket. No connection is made until
// the first request.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Socket == "" {
		return nil, fmt.Errorf("serve: client socket path required")
	}
	if _, _, err := parseListenAddr(cfg.Socket); err != nil {
		return nil, err
	}
	switch cfg.Codec {
	case "", CodecJSON, CodecBinary:
	default:
		return nil, fmt.Errorf("serve: unknown codec %q (want %q or %q)", cfg.Codec, CodecJSON, CodecBinary)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 8
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return &Client{cfg: cfg}, nil
}

// ServerEpoch returns the daemon incarnation last observed by the resume
// handshake (0 before the first connection).
func (c *Client) ServerEpoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverEpoch
}

// Restarts returns how many server restarts the client's handshakes have
// detected so far.
func (c *Client) Restarts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restarts
}

// Do sends one request and returns the reply, transparently reconnecting
// (with capped exponential backoff) and retrying on connection failure.
// A submit retried this way must carry a ReqID: the journal-backed
// dedupe is what makes the retry idempotent when the original reply was
// lost to a crash.
func (c *Client) Do(m Message) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	var lastResp Response
	haveResp := false
	backoff := c.cfg.Backoff
	hintWait := time.Duration(0)
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if hintWait > 0 {
			// A hinted refusal replaces the blind reconnect backoff with the
			// server's own retry horizon.
			time.Sleep(hintWait)
			hintWait = 0
		} else if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
		}
		if err := c.connectLocked(); err != nil {
			lastErr = err
			continue
		}
		resp, err := c.roundTripLocked(m)
		if err != nil {
			lastErr = err
			c.closeLocked()
			continue
		}
		if wait, retryable := c.hintedRetry(resp); retryable {
			lastResp, haveResp = resp, true
			lastErr = fmt.Errorf("serve: %s: %s", resp.Code, resp.Error)
			hintWait = wait
			continue
		}
		return resp, nil
	}
	if haveResp {
		// Every attempt came back with the same class of typed refusal;
		// surface the reply, not an error, so callers branch on Code.
		return lastResp, nil
	}
	return Response{}, fmt.Errorf("serve: request failed after %d attempts: %w", c.cfg.Attempts, lastErr)
}

// hintedRetry decides whether a typed refusal should be retried after
// its server-supplied hint, and for how long to wait.
func (c *Client) hintedRetry(resp Response) (time.Duration, bool) {
	switch resp.Code {
	case CodeShardUnavailable, CodeOverloaded, CodeJournalDegraded:
		// journal-degraded is transient by design: the server's heal
		// prober rolls the journal to a fresh segment on the cadence the
		// hint carries, so a patient client outlives the fault window.
		if !c.cfg.RetryHinted {
			return 0, false
		}
	case CodeTenantQuota:
		if !c.cfg.RetryHinted || !c.cfg.RetryOverQuota {
			return 0, false
		}
	default:
		return 0, false
	}
	wait := time.Duration(resp.RetryAfterSecs * float64(time.Second))
	if wait <= 0 {
		wait = c.cfg.Backoff
	}
	if wait > maxRetryAfter {
		wait = maxRetryAfter
	}
	return wait, true
}

// Close drops the connection (a later Do reconnects).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

func (c *Client) closeLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.codec = nil
	}
}

// connectLocked dials if disconnected and runs the resume handshake on
// every fresh connection, recording restart detections.
func (c *Client) connectLocked() error {
	if c.conn != nil {
		return nil
	}
	network, addr, err := parseListenAddr(c.cfg.Socket)
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout(network, addr, dialTimeout)
	if err != nil {
		return wrapTimeout(err)
	}
	c.conn = conn
	if c.cfg.Codec == CodecBinary {
		c.codec = newBinClientCodec(conn)
	} else {
		c.codec = newJSONClientCodec(conn)
	}
	resp, err := c.roundTripLocked(Message{Op: "resume", ServerEpoch: c.serverEpoch})
	if err != nil {
		c.closeLocked()
		return err
	}
	if resp.Code == CodeServerRestarted {
		c.restarts++
	}
	if resp.ServerEpoch != 0 {
		c.serverEpoch = resp.ServerEpoch
	}
	return nil
}

// roundTripLocked writes one request and reads one reply through the
// connection's codec, the whole exchange bounded by RequestTimeout.
func (c *Client) roundTripLocked(m Message) (Response, error) {
	if c.cfg.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.codec.WriteMessage(m); err != nil {
		return Response{}, wrapTimeout(err)
	}
	resp, err := c.codec.ReadResponse()
	if err != nil {
		return Response{}, wrapTimeout(err)
	}
	return resp, nil
}

// wrapTimeout tags network deadline expiries with ErrTimeout so they stay
// recognizable through Do's final "failed after N attempts" wrapping.
func wrapTimeout(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}
