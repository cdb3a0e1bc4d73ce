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
// operation as a tagged stream. A single reader goroutine
// demultiplexes incoming frames onto per-stream channels; writers
// serialize whole frames under a mutex and send them vectored
// (writeFrame), so a chunk's data bytes go from the caller's buffer to
// the socket without an assembly copy.
//
// Failure model: any transport error on the connection — a write
// error, a read error, a corrupt frame, a stream that timed out
// waiting for its next frame — kills the whole muxConn. Every waiting
// stream observes the death via the done channel, and the per-call
// retry loop (client.run) dials a fresh muxConn. Drop-and-retry for
// every stream sharing the connection is safe because every request in
// the protocol is idempotent.

// streamWindow bounds buffered frames per stream: the reader parks
// once a stream is this far behind, which propagates TCP backpressure
// to the sender — the bounded-channel half of the pipeline.
const streamWindow = 4

// errMuxTimeout is a per-stream deadline expiry. It implements
// net.Error so the retry loop counts it as a timeout.
type errMuxTimeout struct{ addr string }

func (e errMuxTimeout) Error() string {
	return fmt.Sprintf("rpc: stream read from %s timed out", e.addr)
}
func (e errMuxTimeout) Timeout() bool   { return true }
func (e errMuxTimeout) Temporary() bool { return true }

var _ net.Error = errMuxTimeout{}

// muxStream is one in-flight operation on a muxConn.
type muxStream struct {
	id uint64
	// ch delivers this stream's frames from the reader goroutine.
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
		ch:   make(chan respFrame, streamWindow),
		gone: make(chan struct{}),
	}
	m.streams[st.id] = st
	return st, nil
}

// closeStream deregisters a stream and releases any frames already
// delivered to it; later frames for the id are dropped by the reader.
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

// recv waits for the stream's next frame. ReadTimeout applies per
// frame; an expiry kills the connection so the retry loop redials
// instead of inheriting a wedged stream.
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

// muxExchange is one unary request/response over the node's
// connection. req is the request message, possibly in parts: a write's
// data travels from the caller's buffer behind the encoded head,
// without a copy. A traced call's context goes in the frame header, and
// the server spans riding back on the reply are attached to the
// caller's span. MsgSpans itself is never traced — the drain is
// bookkeeping about a trace, not part of it.
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
	var sp *obs.Span
	if req[0][0] != MsgSpans {
		sp = c.traceSpan(ctx)
	}
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

// abortStream tells the server to tear a write stream down without a
// reply (context cancellation, early server error). Best effort: a
// failed abort already killed the connection, which tears down
// server-side state just as finally.
func (c *Client) abortStream(m *muxConn, st *muxStream) {
	m.send(context.Background(), st, nil, []byte{MsgWriteChunk, flagChunkAbort})
}

// writeStreamed sends req as a chunked stream through the shared retry
// machinery.
func (c *Client) writeStreamed(ctx context.Context, req *WriteSegsReq) error {
	err := c.run(ctx, MsgWriteStream, func(ctx context.Context) error {
		return c.writeStreamOnce(ctx, req)
	})
	if err == nil {
		c.met.streamedW.Inc()
	}
	return err
}

// writeStreamOnce is one attempt: open the stream, ship the data as
// bounded chunks, await the single server reply.
func (c *Client) writeStreamOnce(ctx context.Context, req *WriteSegsReq) error {
	m, err := c.getMux(ctx)
	if err != nil {
		return err
	}
	st, err := m.openStream()
	if err != nil {
		return err
	}
	defer m.closeStream(st)
	sp := c.traceSpan(ctx)
	open := AppendWriteStream(getFrameBuf(64), &WriteStreamReq{
		File:        req.File,
		Subfile:     req.Subfile,
		Fingerprint: req.Fingerprint,
		Lo:          req.Lo,
		Hi:          req.Hi,
		Total:       int64(len(req.Data)),
		Epoch:       req.Epoch,
	})
	_, err = m.send(ctx, st, sp, open)
	putFrameBuf(open)
	if err != nil {
		return err
	}
	data := req.Data
	for pos := 0; ; {
		if err := ctx.Err(); err != nil {
			c.abortStream(m, st)
			return err
		}
		// An early reply means the server already gave up on the
		// stream: stop shipping chunks and surface its answer.
		select {
		case f := <-st.ch:
			err := earlyWriteReply(f)
			c.abortStream(m, st)
			return err
		default:
		}
		end := pos + c.cfg.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		flags := byte(0)
		last := end == len(data)
		if last {
			flags = flagChunkLast
		}
		sent, err := m.send(ctx, st, nil, []byte{MsgWriteChunk, flags}, data[pos:end])
		if err != nil {
			return err
		}
		c.met.sentBytes.Add(int64(sent))
		c.met.chunksSent.Inc()
		pos = end
		if last {
			break
		}
	}
	f, err := st.recv(ctx, m)
	if err != nil {
		return err
	}
	defer putFrameBuf(f.body)
	if _, err := parseResp(f, MsgOK); err != nil {
		return err
	}
	c.drainSpans(ctx, sp)
	return nil
}

// earlyWriteReply classifies a server reply that arrived before the
// client finished sending chunks (release included).
func earlyWriteReply(f respFrame) error {
	defer putFrameBuf(f.body)
	if _, err := parseResp(f, MsgOK); err != nil {
		return err
	}
	return fmt.Errorf("%w: OK before write stream completed", ErrCorrupt)
}

// readStreamed fills dst from a chunked read stream through the shared
// retry machinery.
func (c *Client) readStreamed(ctx context.Context, req *ReadSegsReq, dst []byte) error {
	err := c.run(ctx, MsgReadStream, func(ctx context.Context) error {
		return c.readStreamOnce(ctx, req, dst)
	})
	if err == nil {
		c.met.streamedR.Inc()
	}
	return err
}

// readStreamOnce is one attempt: open the stream and scatter arriving
// chunks straight into dst as they land.
func (c *Client) readStreamOnce(ctx context.Context, req *ReadSegsReq, dst []byte) error {
	m, err := c.getMux(ctx)
	if err != nil {
		return err
	}
	st, err := m.openStream()
	if err != nil {
		return err
	}
	defer m.closeStream(st)
	sp := c.traceSpan(ctx)
	open := AppendReadStream(getFrameBuf(64), &ReadStreamReq{
		File:        req.File,
		Subfile:     req.Subfile,
		Fingerprint: req.Fingerprint,
		Lo:          req.Lo,
		Hi:          req.Hi,
		N:           req.N,
		ChunkSize:   int64(c.cfg.ChunkSize),
		Epoch:       req.Epoch,
	})
	_, err = m.send(ctx, st, sp, open)
	putFrameBuf(open)
	if err != nil {
		return err
	}
	pos := 0
	for {
		f, err := st.recv(ctx, m)
		if err != nil {
			return err
		}
		switch f.msgType {
		case MsgDataChunk:
			flags, data, err := splitChunk(f.payload)
			if err != nil {
				putFrameBuf(f.body)
				m.fail(err)
				return err
			}
			if pos+len(data) > len(dst) {
				putFrameBuf(f.body)
				err := fmt.Errorf("%w: read stream overflows %d-byte buffer", ErrCorrupt, len(dst))
				m.fail(err)
				return err
			}
			copy(dst[pos:], data)
			pos += len(data)
			c.met.recvBytes.Add(int64(len(f.body) + 8))
			c.met.chunksRecvd.Inc()
			putFrameBuf(f.body)
			if flags&flagChunkAbort != 0 {
				err := fmt.Errorf("%w: server aborted read stream", ErrCorrupt)
				m.fail(err)
				return err
			}
			if flags&flagChunkLast != 0 {
				if int64(pos) != req.N {
					err := fmt.Errorf("%w: read stream returned %d bytes, want %d", ErrCorrupt, pos, req.N)
					m.fail(err)
					return err
				}
				c.drainSpans(ctx, sp)
				return nil
			}
		case MsgError:
			re, err := DecodeError(f.payload)
			putFrameBuf(f.body)
			if err != nil {
				m.fail(err)
				return err
			}
			return re
		default:
			putFrameBuf(f.body)
			err := fmt.Errorf("%w: read stream response type %#x", ErrCorrupt, f.msgType)
			m.fail(err)
			return err
		}
	}
}

// drainSpans fetches the server-side span records of a completed
// streamed op and attaches them to sp. Stream spans cannot ride the
// stream's reply frame (it is built before the span closes), so the
// server stashes them and the client drains with MsgSpans. Best
// effort: a trace missing its server half still stitches, the server
// leg just shows as part of the client rpc span. The server stashes
// records a beat after sending the reply, so an empty first answer is
// retried briefly before giving up.
func (c *Client) drainSpans(ctx context.Context, sp *obs.Span) {
	if sp == nil {
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		req := AppendSpansReq(getFrameBuf(16), sp.TraceID())
		f, err := c.muxExchange(ctx, req)
		putFrameBuf(req)
		if err != nil {
			return
		}
		var recs []obs.SpanRecord
		if f.msgType == MsgSpansResp {
			recs, err = DecodeSpansResp(f.payload)
		}
		putFrameBuf(f.body)
		if err != nil {
			return
		}
		if len(recs) > 0 {
			sp.Attach(recs)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}
