package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/obs"
	"parafile/internal/qos"
)

// client.go is the compute-node side of the wire: one Client per I/O
// node. All traffic to the node multiplexes over a single connection
// (mux.go) — concurrent operations interleave as tagged streams, and
// transfers larger than one chunk travel as chunked streams that
// overlap network transmission with the server-side scatter/gather.
//
// Every request in the protocol is idempotent — writes place the same
// bytes at the same offsets, registration and close are
// retry-tolerant — so the client retries blindly on transport errors
// (dial failures, resets, deadline expiries) with bounded exponential
// backoff. Server-reported RemoteErrors are answers, not transport
// failures, and are returned without retry.
//
// Every call takes the operation context of the collective op it
// serves: connection deadlines are capped by the context's deadline,
// dials use it, and the backoff sleeps select on it — a cancelled op
// returns immediately instead of finishing its retry budget. A
// per-node circuit breaker (breaker.go) fast-fails calls to a node
// that keeps failing, probing recovery with the lightweight Ping RPC.

// ClientConfig configures a connection to one I/O node.
type ClientConfig struct {
	// Addr is the node's host:port.
	Addr string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// WriteTimeout / ReadTimeout are per-frame deadlines (default 30s
	// each), capped by the call context's deadline. An expired
	// deadline drops the connection and retries.
	WriteTimeout time.Duration
	ReadTimeout  time.Duration
	// MaxRetries is the number of retry attempts after the first
	// failure (default 4; total attempts = MaxRetries+1).
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 10ms and 1s). Each pause is equal-jittered:
	// half the capped exponential plus a random draw of the other
	// half, so clients that failed together do not retry in lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffSeed seeds the jitter source (0 derives a per-client seed
	// from the clock and a process-wide counter). Tests pin it for
	// reproducible schedules.
	BackoffSeed int64
	// Tenant names this client's fair-share class for server-side
	// admission control; it travels in the connection's hello preface.
	// Empty lands in the server's default class.
	Tenant string
	// MaxFrame bounds response frames (DefaultMaxFrame when 0).
	MaxFrame int64
	// ChunkSize is the wire chunk (default 1 MiB, at most MaxFrame
	// less the frame overhead): a WriteSegments/ReadSegments payload
	// larger than one chunk travels as a chunked stream, anything
	// smaller as a single frame.
	ChunkSize int
	// BreakerThreshold is the number of consecutive transport failures
	// that opens the per-node circuit breaker (default 5; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before probing
	// the node with a Ping (default 1s).
	BreakerCooldown time.Duration
	// Dialer optionally replaces the connection dialer — the fault
	// layer injects connection-level faults (corrupt frames,
	// fail-after-N-bytes) here. Nil uses a plain TCP dial. The context
	// passed in carries the dial timeout.
	Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
	// Metrics receives the client-side RPC series; nil records nothing.
	Metrics *obs.Registry
	// Trace enables distributed tracing: calls whose context carries a
	// traced obs.Span put its trace and span IDs in their frame
	// headers, and the server spans a tracing daemon returns are
	// attached to it. With Trace false the header fields stay zero;
	// calls without a span in their context pay nothing either way.
	Trace bool
}

func (cfg *ClientConfig) fillDefaults() {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1 << 20
	}
	// A chunk must fit a frame: past the cap the daemon would drop
	// every chunk as oversized and the client retry to exhaustion.
	if max := int(cfg.MaxFrame) - frameSlack; cfg.ChunkSize > max {
		cfg.ChunkSize = max
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
}

// respFrame is one parsed response: the pooled backing buffer plus the
// message type and payload views into it. Release the body with
// putFrameBuf (ReleaseFrame) when done.
type respFrame struct {
	body    []byte
	msgType byte
	payload []byte
	// spans are the server span records the frame header carried.
	spans []obs.SpanRecord
}

// Client talks to one I/O node.
type Client struct {
	cfg ClientConfig
	met clientMetrics
	br  *breaker // nil when disabled

	// rng draws backoff jitter; guarded because concurrent calls on
	// one client share it.
	rngMu sync.Mutex
	rng   *rand.Rand

	// mu guards the node's one connection and serializes redialing it.
	mu     sync.Mutex
	mux    *muxConn
	closed bool

	// registered remembers the projection fingerprints this node has
	// acknowledged, so each shape's PROJ travels once (per client) —
	// the §8.1 view-set amortization over a real wire.
	registered sync.Map // uint64 -> struct{}

	// paceUntil (UnixNano, 0 = open) is the client-side shed gate: the
	// deadline of the latest RetryAfter hint a shed answer carried.
	// Data-plane attempts before the deadline are refused locally —
	// shipping a payload the node already said it will refuse wastes
	// exactly the bandwidth the shed was protecting. Control-plane
	// calls (pings, stats, epoch fencing) bypass the gate like they
	// bypass server-side admission.
	//
	// The gate never snaps fully open mid-episode: from the first wire
	// shed until paceEpisode passes without another one, wire attempts
	// are additionally capped at paceBurst in flight (paceSlots), with
	// the overflow shed locally. Reopening uncapped would let a queued
	// backlog flood the node the instant a window expires — hundreds
	// of doomed payloads per cycle instead of at most paceBurst.
	paceUntil    atomic.Int64
	paceSlots    atomic.Int32
	paceLastShed atomic.Int64
}

// clientSeq decorrelates the derived jitter seeds of clients built in
// the same clock tick.
var clientSeq atomic.Int64

// NewClient builds a client; connections are dialed lazily.
func NewClient(cfg ClientConfig) *Client {
	cfg.fillDefaults()
	seed := cfg.BackoffSeed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ clientSeq.Add(1)<<32
	}
	c := &Client{
		cfg: cfg,
		met: newClientMetrics(cfg.Metrics),
		rng: rand.New(rand.NewSource(seed)),
	}
	if cfg.BreakerThreshold > 0 {
		c.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown,
			newBreakerMetrics(cfg.Metrics, cfg.Addr))
	}
	return c
}

// maxClientPace caps how long a RetryAfter hint closes the client-side
// gate: a hint beyond the cap still paces, but the client re-probes the
// node at least this often so a stale (or absurd) hint cannot wedge a
// tenant after server-side pressure clears.
const maxClientPace = 2 * time.Second

// paceStretch widens the gate past the server's hint. RetryAfter says
// when capacity covers ONE request, so pacing exactly that long makes
// every other wire attempt a doomed payload (50% of the tenant's
// bytes shipped only to be refused). Stretching the window lets the
// server-side budget accumulate stretch-many requests' worth, so each
// wire shed amortizes over ~stretch admitted requests once the gate
// reopens, while the tenant's long-run admitted rate — set by the
// server's refill, not by probe timing — is unchanged.
const paceStretch = 8

// paceBurst caps concurrent wire attempts during an overload episode:
// when a closed window expires, at most this many requests carry
// payloads to the node at once; the rest stay locally shed until a
// slot frees. It bounds the doomed bytes of a reopen to paceBurst
// payloads while leaving far more admission throughput than any
// quota that produced the episode (paceBurst per round trip).
const paceBurst = 8

// paceEpisode is how long after the last wire shed the concurrency
// cap stays armed. It must exceed maxClientPace so an episode cannot
// lapse while the gate is still closed; once a node answers nothing
// but admits for this long, the client's data path returns to
// zero-overhead.
const paceEpisode = maxClientPace + time.Second

// paceFor closes the client-side shed gate for d (capped), keeping the
// latest deadline when hints race.
func (c *Client) paceFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if d > maxClientPace {
		d = maxClientPace
	}
	t := time.Now().Add(d).UnixNano()
	for {
		cur := c.paceUntil.Load()
		if cur >= t || c.paceUntil.CompareAndSwap(cur, t) {
			return
		}
	}
}

// paceRemaining reports how long the shed gate stays closed (0 = open).
func (c *Client) paceRemaining() time.Duration {
	u := c.paceUntil.Load()
	if u == 0 {
		return 0
	}
	d := time.Until(time.Unix(0, u))
	if d <= 0 {
		return 0
	}
	return d
}

// paceActive reports whether the client is inside an overload episode:
// a wire shed happened within paceEpisode. Outside an episode the
// data path pays one atomic load and nothing else.
func (c *Client) paceActive() bool {
	u := c.paceLastShed.Load()
	return u != 0 && time.Since(time.Unix(0, u)) < paceEpisode
}

// paceAcquire claims one of the episode's paceBurst wire slots.
func (c *Client) paceAcquire() bool {
	for {
		n := c.paceSlots.Load()
		if n >= paceBurst {
			return false
		}
		if c.paceSlots.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (c *Client) paceRelease() { c.paceSlots.Add(-1) }

// Addr returns the node address the client was built for.
func (c *Client) Addr() string { return c.cfg.Addr }

// Close tears the node's connection down; in-flight calls fail, and
// so does every later call.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.mux != nil {
		c.mux.fail(fmt.Errorf("rpc: client for %s is closed", c.cfg.Addr))
		c.mux = nil
	}
	return nil
}

// getMux returns the node's live connection, dialing one if needed.
func (c *Client) getMux(ctx context.Context) (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("rpc: client for %s is closed", c.cfg.Addr)
	}
	if c.mux != nil && c.mux.alive() {
		return c.mux, nil
	}
	c.mux = nil
	conn, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.mux = newMuxConn(conn, &c.cfg)
	return c.mux, nil
}

// dial establishes one connection and runs the hello preface on it.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	c.met.dials.Inc()
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	var conn net.Conn
	var err error
	if c.cfg.Dialer != nil {
		conn, err = c.cfg.Dialer(dctx, "tcp", c.cfg.Addr)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(dctx, "tcp", c.cfg.Addr)
	}
	if err != nil {
		return nil, err
	}
	if err := c.hello(ctx, conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// hello opens a fresh connection with the preface — this build's
// protocol version and the client's tenant — and waits for the
// server's verdict. A transport failure fails the dial, and the
// caller's retry loop handles it like any connection error; a refusal
// (a daemon of another protocol generation) is a RemoteError and final.
func (c *Client) hello(ctx context.Context, conn net.Conn) error {
	req := AppendHello(getFrameBuf(32), MaxProtoVersion, c.cfg.Tenant)
	defer putFrameBuf(req)
	if err := conn.SetWriteDeadline(deadline(ctx, c.cfg.WriteTimeout)); err != nil {
		return err
	}
	if _, err := writeFrame(conn, MaxProtoVersion, &frameHdr{}, req); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(deadline(ctx, c.cfg.ReadTimeout)); err != nil {
		return err
	}
	body, err := ReadFrame(conn, c.cfg.MaxFrame)
	if err != nil {
		return err
	}
	defer ReleaseFrame(body)
	msgType, payload, err := ParseFrame(body)
	if err != nil {
		return err
	}
	if _, err := parseResp(respFrame{msgType: msgType, payload: payload}, MsgOK); err != nil {
		return err
	}
	// The mux reader enforces ReadTimeout per stream, not on the socket.
	return conn.SetReadDeadline(time.Time{})
}

// backoff returns the pause before retry attempt (1-based): equal
// jitter around the capped exponential — half deterministic, half
// drawn from the client's seeded source. Purely deterministic backoff
// synchronizes every client that failed at the same moment into
// retrying at the same moment, turning one overload spike into a
// train of them.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + j
}

// deadline caps a configured per-request timeout by the context's
// deadline, so an op-level deadline shortens the socket waits.
func deadline(ctx context.Context, d time.Duration) time.Time {
	t := time.Now().Add(d)
	if dl, ok := ctx.Deadline(); ok && dl.Before(t) {
		t = dl
	}
	return t
}

// ping is one unretried Ping exchange, used directly by Ping and as
// the breaker's half-open probe.
func (c *Client) ping(ctx context.Context) error {
	req := AppendPing(getFrameBuf(8))
	defer putFrameBuf(req)
	f, err := c.muxExchange(ctx, req)
	if err != nil {
		return err
	}
	defer putFrameBuf(f.body)
	_, err = parseResp(f, MsgOK)
	return err
}

// Ping probes the node's liveness with the lightweight MsgPing RPC
// (single attempt, no retry). The result feeds the circuit breaker.
func (c *Client) Ping(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.met.requests[MsgPing].Inc()
	err := c.ping(ctx)
	if err != nil && ctx.Err() == nil {
		c.br.failure()
	} else if err == nil {
		c.br.success()
	}
	return err
}

// admit consults the breaker, running the half-open recovery probe
// when it is this call's turn to.
func (c *Client) admit(ctx context.Context, reqType byte) error {
	if c.br == nil {
		return nil
	}
	ok, probe := c.br.admit()
	if ok {
		return nil
	}
	if !probe {
		return fmt.Errorf("rpc: %s to %s: %w", MsgName(reqType), c.cfg.Addr, ErrBreakerOpen)
	}
	c.br.probeStarted()
	if err := c.ping(ctx); err != nil {
		if ctx.Err() == nil {
			c.br.failure()
		} else {
			// A cancelled probe says nothing about the node: put the
			// breaker back to open without restarting the cooldown.
			c.br.probeAborted()
		}
		return fmt.Errorf("rpc: %s to %s: recovery probe failed (%v): %w",
			MsgName(reqType), c.cfg.Addr, err, ErrBreakerOpen)
	}
	c.br.success()
	return nil
}

// run wraps one operation attempt function with the shared request
// machinery: metrics, breaker admission, bounded-backoff retry on
// transport errors, and context-aware cancellation. A RemoteError from
// op is an answer (the node was reached), not a transport failure: it
// is returned without retry and counts as breaker success. Both unary
// calls and chunked streams retry through here.
//
// When the context carries a traced span and tracing is on, the whole
// call (every attempt, backoff included) runs under an rpc.* child
// span; a call that exhausts its retries leaves that span marked
// failed, so an unreachable node still shows up in the stitched tree.
func (c *Client) run(ctx context.Context, reqType byte, op func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.cfg.Trace {
		if parent := obs.SpanFromContext(ctx); parent.TraceID() != 0 {
			sp := parent.StartChild("rpc." + MsgName(reqType) + "→" + c.cfg.Addr)
			err := c.runInner(obs.ContextWithSpan(ctx, sp), reqType, op)
			if err != nil {
				sp.Fail()
			}
			sp.End()
			return err
		}
	}
	return c.runInner(ctx, reqType, op)
}

func (c *Client) runInner(ctx context.Context, reqType byte, op func(context.Context) error) error {
	c.met.inflight.Add(1)
	start := time.Now()
	defer func() {
		c.met.inflight.Add(-1)
		c.met.requestNs.Observe(time.Since(start).Nanoseconds())
	}()
	c.met.requests[reqType].Inc()

	if err := c.admit(ctx, reqType); err != nil {
		c.met.failures.Inc()
		return err
	}

	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			pause := c.backoff(attempt)
			if retryAfter > pause {
				// A shed answer's RetryAfter hint dominates the
				// exponential: the server told us when capacity returns.
				pause = retryAfter
			}
			retryAfter = 0
			timer := time.NewTimer(pause)
			select {
			case <-ctx.Done():
				timer.Stop()
				c.met.failures.Inc()
				return fmt.Errorf("rpc: %s to %s cancelled after %d attempts (last: %v): %w",
					MsgName(reqType), c.cfg.Addr, attempt, lastErr, ctx.Err())
			case <-timer.C:
			}
		}
		if err := ctx.Err(); err != nil {
			c.met.failures.Inc()
			return fmt.Errorf("rpc: %s to %s: %w", MsgName(reqType), c.cfg.Addr, err)
		}
		var paced bool
		if qosOpOf(reqType) != qos.OpControl && c.paceActive() {
			if wait := c.paceRemaining(); wait > 0 {
				// The node's last shed answer said capacity returns at a
				// known time; honoring it here sheds the attempt without
				// shipping a payload the node would refuse anyway. Counted
				// as shed (plus paced), never as failure, and the retry
				// loop sleeps out the remaining window like a wire shed.
				c.met.shed.Inc()
				c.met.paced.Inc()
				retryAfter = wait
				lastErr = fmt.Errorf("rpc: %s to %s: %w", MsgName(reqType), c.cfg.Addr,
					&qos.Overload{RetryAfter: wait, Reason: "client paced"})
				continue
			}
			// Window expired but the episode is still on: attempts trickle
			// to the node at most paceBurst at a time, so a queued backlog
			// cannot flood it the instant the window reopens.
			if !c.paceAcquire() {
				c.met.shed.Inc()
				c.met.paced.Inc()
				retryAfter = c.cfg.BackoffBase
				lastErr = fmt.Errorf("rpc: %s to %s: %w", MsgName(reqType), c.cfg.Addr,
					&qos.Overload{RetryAfter: c.cfg.BackoffBase, Reason: "client paced"})
				continue
			}
			paced = true
		}
		err := op(ctx)
		if paced {
			c.paceRelease()
		}
		if err == nil {
			c.br.success()
			return nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			// A RemoteError is an answer: the node was reached and
			// responded, so the breaker records success whatever the
			// answer says. An overloaded answer is backpressure, not a
			// verdict — retry it (jittered, honoring the server's
			// RetryAfter) instead of returning; every other remote
			// answer is final.
			c.br.success()
			if re.Code != ErrCodeOverloaded {
				return err
			}
			c.met.shed.Inc()
			c.paceLastShed.Store(time.Now().UnixNano())
			c.paceFor(re.RetryAfter * paceStretch)
			retryAfter = re.RetryAfter
			lastErr = err
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			c.met.timeouts.Inc()
		}
		if ctx.Err() == nil {
			c.br.failure()
		}
		lastErr = err
	}
	if errors.Is(lastErr, qos.ErrOverloaded) {
		// The budget ran out on backpressure, not failure: every
		// attempt was answered by a healthy, saturated node. Already
		// counted per-attempt on the shed counter; the %w keeps
		// errors.Is(err, qos.ErrOverloaded) true for callers that
		// classify outcomes (clusterfile marks the node shed).
		return fmt.Errorf("rpc: %s to %s shed after %d attempts: %w",
			MsgName(reqType), c.cfg.Addr, c.cfg.MaxRetries+1, lastErr)
	}
	c.met.failures.Inc()
	return fmt.Errorf("rpc: %s to %s failed after %d attempts: %w",
		MsgName(reqType), c.cfg.Addr, c.cfg.MaxRetries+1, lastErr)
}

// call sends an encoded request message and returns the parsed
// response (pooled — release its body with ReleaseFrame). Transport
// errors are retried with exponential backoff; ctx cancellation aborts
// the retry loop (and its backoff sleeps) immediately.
func (c *Client) call(ctx context.Context, req ...[]byte) (respFrame, error) {
	var resp respFrame
	err := c.run(ctx, req[0][0], func(ctx context.Context) error {
		f, err := c.muxExchange(ctx, req...)
		if err != nil {
			return err
		}
		// Decode error answers inside the retry loop, not after it:
		// an overloaded answer must reach the loop's backpressure
		// branch (retry with the server's RetryAfter) instead of
		// surfacing only once the transport retries are spent.
		if f.msgType == MsgError {
			re, derr := DecodeError(f.payload)
			ReleaseFrame(f.body)
			if derr != nil {
				return derr
			}
			return re
		}
		resp = f
		return nil
	})
	if err != nil {
		return respFrame{}, err
	}
	return resp, nil
}

// parseResp classifies a response against the expected success type
// and returns its payload.
func parseResp(f respFrame, want byte) ([]byte, error) {
	if f.msgType == MsgError {
		re, err := DecodeError(f.payload)
		if err != nil {
			return nil, err
		}
		return nil, re
	}
	if f.msgType != want {
		return nil, fmt.Errorf("%w: response type %#x, want %#x", ErrCorrupt, f.msgType, want)
	}
	return f.payload, nil
}

// exchange is call + parse + release (of the encoded first part) for
// requests with empty OK responses.
func (c *Client) exchange(ctx context.Context, req ...[]byte) error {
	f, err := c.call(ctx, req...)
	putFrameBuf(req[0])
	if err != nil {
		return err
	}
	defer ReleaseFrame(f.body)
	_, err = parseResp(f, MsgOK)
	return err
}

// CreateFile opens the request's subfile stores on the node.
func (c *Client) CreateFile(ctx context.Context, req *CreateFileReq) error {
	return c.exchange(ctx, AppendCreateFile(getFrameBuf(64), req))
}

// SetView registers an encoded projection under its fingerprint.
func (c *Client) SetView(ctx context.Context, fp uint64, proj []byte) error {
	err := c.exchange(ctx, AppendSetView(getFrameBuf(64), &SetViewReq{Fingerprint: fp, Proj: proj}))
	if err == nil {
		c.registered.Store(fp, struct{}{})
	}
	return err
}

// Registered reports whether the client has seen the node acknowledge
// the fingerprint.
func (c *Client) Registered(fp uint64) bool {
	_, ok := c.registered.Load(fp)
	return ok
}

// Forget drops the local registration record of a fingerprint (used
// when the node reports it unknown, e.g. after a daemon restart).
func (c *Client) Forget(fp uint64) { c.registered.Delete(fp) }

// WriteSegments performs a scatter (nonzero fingerprint) or contiguous
// (zero fingerprint) write. A payload larger than one chunk travels as
// a chunked stream, overlapping transmission with the server-side
// scatter.
func (c *Client) WriteSegments(ctx context.Context, req *WriteSegsReq) error {
	if len(req.Data) > c.cfg.ChunkSize {
		return c.writeStreamed(ctx, req)
	}
	return c.exchange(ctx, appendWriteSegsHead(getFrameBuf(64), req), req.Data)
}

// ReadSegments performs a gather (nonzero fingerprint) or contiguous
// (zero fingerprint) read of len(dst) bytes into dst. A read larger
// than one chunk travels as a chunked stream.
func (c *Client) ReadSegments(ctx context.Context, req *ReadSegsReq, dst []byte) error {
	if req.N != int64(len(dst)) {
		return fmt.Errorf("rpc: read of %d bytes into %d-byte buffer", req.N, len(dst))
	}
	if len(dst) > c.cfg.ChunkSize {
		return c.readStreamed(ctx, req, dst)
	}
	reqBuf := AppendReadSegs(getFrameBuf(64), req)
	f, err := c.call(ctx, reqBuf)
	putFrameBuf(reqBuf)
	if err != nil {
		return err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgData)
	if err != nil {
		return err
	}
	data, err := DecodeData(payload)
	if err != nil {
		return err
	}
	if int64(len(data)) != req.N {
		return fmt.Errorf("%w: read returned %d bytes, want %d", ErrCorrupt, len(data), req.N)
	}
	copy(dst, data)
	return nil
}

// Stat returns the subfile's current length.
func (c *Client) Stat(ctx context.Context, file string, subfile int64) (int64, error) {
	reqBuf := AppendStat(getFrameBuf(64), &StatReq{File: file, Subfile: subfile})
	f, err := c.call(ctx, reqBuf)
	putFrameBuf(reqBuf)
	if err != nil {
		return 0, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgStatResp)
	if err != nil {
		return 0, err
	}
	return DecodeStatResp(payload)
}

// Checksum returns the CRC32C of subfile bytes [off, off+n); bytes
// beyond the subfile's length count as zeroes.
func (c *Client) Checksum(ctx context.Context, file string, subfile, off, n int64) (uint32, error) {
	reqBuf := AppendChecksum(getFrameBuf(64), &ChecksumReq{File: file, Subfile: subfile, Off: off, N: n})
	f, err := c.call(ctx, reqBuf)
	putFrameBuf(reqBuf)
	if err != nil {
		return 0, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgChecksumResp)
	if err != nil {
		return 0, err
	}
	return DecodeChecksumResp(payload)
}

// CloseFile syncs and closes the file's stores on the node.
func (c *Client) CloseFile(ctx context.Context, file string) error {
	return c.exchange(ctx, AppendClose(getFrameBuf(64), &CloseReq{File: file}))
}

// RemoveStore closes the file's stores on the node and deletes their
// backing media, replica stores (name~r<r>) included — the rebalance
// GC of a superseded store generation. Unknown files answer OK, so
// the sweep is idempotent across retries and half-done passes.
func (c *Client) RemoveStore(ctx context.Context, file string) error {
	return c.exchange(ctx, AppendClose(getFrameBuf(64), &CloseReq{File: file, Remove: true}))
}

// SetEpoch ratchets the placement epoch of the file's stores on the
// node (base name plus replica stores) and raises or clears the write
// fence — the data-daemon half of a rebalance's epoch flip. A node
// holding no store of the file answers OK: the flip is idempotent
// across the fan-out.
func (c *Client) SetEpoch(ctx context.Context, file string, epoch uint64, fence bool) error {
	return c.exchange(ctx, AppendEpoch(getFrameBuf(64), &EpochReq{File: file, Epoch: epoch, Fence: fence}))
}
