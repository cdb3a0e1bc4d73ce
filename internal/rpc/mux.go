package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"parafile/internal/obs"
)

// mux.go is the client's connection: one per node, carrying every
// request as a tagged stream — one request frame out, one reply frame
// back. A single reader goroutine demultiplexes incoming replies onto
// per-stream channels; writers serialize whole frames under a mutex
// and send them vectored (writeFrame), so a write's data bytes go from
// the caller's buffer to the socket without an assembly copy.
//
// Failure model: any transport error on the connection — a write
// error, a read error, a corrupt frame, a reply that timed out — kills
// the whole muxConn. Every waiting stream observes the death via the
// done channel, and the per-call retry loop (client.run) dials a fresh
// muxConn. Drop-and-retry for every stream sharing the connection is
// safe because every request in the protocol is idempotent.

// streamWindow bounds the pieces of one op in flight (piece.go). With
// TCP's own flow control it is the whole backpressure story: an op
// never has more than this many chunks queued at the node.
const streamWindow = 4

// errMuxTimeout is a per-request deadline expiry. It implements
// net.Error so the retry loop counts it as a timeout.
type errMuxTimeout struct{ addr string }

func (e errMuxTimeout) Error() string {
	return fmt.Sprintf("rpc: reply from %s timed out", e.addr)
}
func (e errMuxTimeout) Timeout() bool   { return true }
func (e errMuxTimeout) Temporary() bool { return true }

var _ net.Error = errMuxTimeout{}

// muxStream is one in-flight request on a muxConn.
type muxStream struct {
	id uint64
	// ch delivers this stream's reply from the reader goroutine.
	ch chan respFrame
	// gone closes when the stream is deregistered, so the reader never
	// blocks forever on an abandoned stream.
	gone chan struct{}
}

// muxConn is one multiplexed connection.
type muxConn struct {
	conn net.Conn
	cfg  *ClientConfig

	// wmu serializes frame writes; each frame is written whole.
	wmu sync.Mutex

	mu      sync.Mutex
	streams map[uint64]*muxStream
	nextID  uint64
	err     error
	done    chan struct{}
}

func newMuxConn(conn net.Conn, cfg *ClientConfig) *muxConn {
	m := &muxConn{
		conn:    conn,
		cfg:     cfg,
		streams: make(map[uint64]*muxStream),
		done:    make(chan struct{}),
	}
	go m.readLoop()
	return m
}

func (m *muxConn) alive() bool {
	select {
	case <-m.done:
		return false
	default:
		return true
	}
}

func (m *muxConn) error() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		return fmt.Errorf("rpc: connection to %s failed", m.cfg.Addr)
	}
	return m.err
}

// fail kills the connection: the first error wins, every stream's
// recv observes done, and the reader goroutine exits on the closed
// socket.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.mu.Unlock()
	m.conn.Close()
}

// openStream registers a fresh stream id.
func (m *muxConn) openStream() (*muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextID++
	st := &muxStream{
		id:   m.nextID,
		ch:   make(chan respFrame, 1),
		gone: make(chan struct{}),
	}
	m.streams[st.id] = st
	return st, nil
}

// closeStream deregisters a stream and releases a reply already
// delivered to it; a later reply for the id is dropped by the reader.
func (m *muxConn) closeStream(st *muxStream) {
	m.mu.Lock()
	delete(m.streams, st.id)
	m.mu.Unlock()
	close(st.gone)
	for {
		select {
		case f := <-st.ch:
			putFrameBuf(f.body)
		default:
			return
		}
	}
}

// send writes one frame of stream st, vectored, under the write lock,
// and returns the bytes put on the wire. sp, when non-nil, stamps the
// caller's trace context into the frame header. A transport error
// kills the connection.
func (m *muxConn) send(ctx context.Context, st *muxStream, sp *obs.Span, parts ...[]byte) (int, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	select {
	case <-m.done:
		return 0, m.error()
	default:
	}
	err := m.conn.SetWriteDeadline(deadline(ctx, m.cfg.WriteTimeout))
	var n int
	if err == nil {
		h := frameHdr{sid: st.id, trace: sp.TraceID(), span: sp.SpanID()}
		n, err = writeFrame(m.conn, MaxProtoVersion, &h, parts...)
	}
	if err != nil {
		m.fail(err)
	}
	return n, err
}

// recv waits for the stream's reply. ReadTimeout applies per request;
// an expiry kills the connection so the retry loop redials instead of
// inheriting a wedged one.
func (st *muxStream) recv(ctx context.Context, m *muxConn) (respFrame, error) {
	timer := time.NewTimer(m.cfg.ReadTimeout)
	defer timer.Stop()
	select {
	case f := <-st.ch:
		return f, nil
	case <-m.done:
		return respFrame{}, m.error()
	case <-ctx.Done():
		return respFrame{}, ctx.Err()
	case <-timer.C:
		err := errMuxTimeout{m.cfg.Addr}
		m.fail(err)
		return respFrame{}, err
	}
}

// readLoop demultiplexes incoming frames onto stream channels. Frames
// for unknown (already closed) streams are dropped; any read or parse
// error kills the connection.
func (m *muxConn) readLoop() {
	for {
		body, err := ReadFrame(m.conn, m.cfg.MaxFrame)
		if err != nil {
			m.fail(err)
			return
		}
		h, msgType, payload, err := parseFrame(body)
		if err != nil {
			putFrameBuf(body)
			m.fail(err)
			return
		}
		m.mu.Lock()
		st := m.streams[h.sid]
		m.mu.Unlock()
		if st == nil {
			putFrameBuf(body)
			continue
		}
		select {
		case st.ch <- respFrame{body: body, msgType: msgType, payload: payload, spans: h.spans}:
		case <-st.gone:
			putFrameBuf(body)
		case <-m.done:
			putFrameBuf(body)
			return
		}
	}
}

// traceSpan returns the context's span when this call should carry
// trace context: tracing is on and the context holds a traced span.
func (c *Client) traceSpan(ctx context.Context) *obs.Span {
	if c.cfg.Trace {
		if sp := obs.SpanFromContext(ctx); sp.TraceID() != 0 {
			return sp
		}
	}
	return nil
}

// muxExchange is one request/response over the node's connection. req
// is the request message, possibly in parts: a write's data travels
// from the caller's buffer behind the encoded head, without a copy. A
// traced call's context goes in the frame header, and the server spans
// riding back on the reply are attached to the caller's span.
func (c *Client) muxExchange(ctx context.Context, req ...[]byte) (respFrame, error) {
	m, err := c.getMux(ctx)
	if err != nil {
		return respFrame{}, err
	}
	st, err := m.openStream()
	if err != nil {
		return respFrame{}, err
	}
	defer m.closeStream(st)
	sp := c.traceSpan(ctx)
	sent, err := m.send(ctx, st, sp, req...)
	if err != nil {
		return respFrame{}, err
	}
	c.met.sentBytes.Add(int64(sent))
	f, err := st.recv(ctx, m)
	if err != nil {
		return respFrame{}, err
	}
	c.met.recvBytes.Add(int64(len(f.body) + 8))
	sp.Attach(f.spans)
	return f, nil
}
