package rpc

import (
	"fmt"
	"net"
	"sync"

	"parafile/internal/obs"
)

// conn.go is the server side of a connection, shared by every daemon
// that speaks the protocol — the data daemons (Server) and the
// metadata service (meta.Service via ServeConn). A connection opens
// with the client's MsgHello preface; after it a single read loop
// demultiplexes tagged frames, every unary request runs in its own
// goroutine, and replies serialize under a write lock, so a slow
// request never blocks the ones queued behind it on the same socket.

// connHandler is the daemon behind a served connection.
type connHandler interface {
	// unary answers one request: the reply message in a pooled buffer
	// (the loop releases it) plus the span records to ride back on the
	// reply frame. h carries the caller's trace context.
	unary(tenant string, h frameHdr, msgType byte, payload []byte) (reply []byte, spans []obs.SpanRecord)
	// stream gets first refusal on every frame, before unary dispatch:
	// a daemon that runs chunked transfers consumes their frames here.
	// It runs on the read loop, so it must not block on anything but
	// the stream's own window. When taken or err is set the handler
	// owns body; an error poisons the connection.
	stream(sc *srvConn, h frameHdr, msgType byte, body, payload []byte) (taken bool, err error)
}

// Handler answers one unary request of a daemon without chunked
// transfers: tenant is the class the connection's preface named, the
// result a reply message built by an Append* encoder.
type Handler func(tenant string, msgType byte, payload []byte) []byte

func (f Handler) unary(tenant string, _ frameHdr, msgType byte, payload []byte) ([]byte, []obs.SpanRecord) {
	return f(tenant, msgType, payload), nil
}

func (f Handler) stream(*srvConn, frameHdr, byte, []byte, []byte) (bool, error) {
	return false, nil
}

// ServeConn runs the protocol's connection loop on an accepted
// connection until it drops, answering every request through h. The
// caller closes conn.
func ServeConn(conn net.Conn, maxFrame int64, h Handler) {
	serveConn(conn, maxFrame, h, nil, nil)
}

// srvConn is one served connection.
type srvConn struct {
	conn       net.Conn
	maxFrame   int64
	h          connHandler
	recv, sent *obs.Counter
	// tenant is the fair-share class the preface named, fixed for the
	// connection's lifetime (the request goroutines only read it).
	tenant string

	// wmu serializes outgoing frames across all streams.
	wmu sync.Mutex
	// wg tracks every goroutine spawned for this connection.
	wg sync.WaitGroup

	// writeStreams holds the open chunked writes of a data daemon; it
	// is owned by the read loop goroutine.
	writeStreams map[uint64]*srvWriteStream
}

// serveConn runs one connection until it drops, then releases every
// stream worker and waits for the request goroutines.
func serveConn(conn net.Conn, maxFrame int64, h connHandler, recv, sent *obs.Counter) {
	sc := &srvConn{conn: conn, maxFrame: maxFrame, h: h, recv: recv, sent: sent}
	if sc.preface() {
		sc.readLoop()
	}
	for _, st := range sc.writeStreams {
		close(st.chunks)
	}
	sc.wg.Wait()
}

// send writes one frame, vectored and serialized.
func (sc *srvConn) send(h *frameHdr, parts ...[]byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	n, err := writeFrame(sc.conn, MaxProtoVersion, h, parts...)
	if err != nil {
		return err
	}
	sc.sent.Add(int64(n))
	return nil
}

// preface reads the connection's first frame, which must be a MsgHello
// naming this build's protocol version, and records the tenant it
// carries. Anything else is answered with a typed bad-request error
// and refused — a peer from another generation is told so instead of
// being misparsed or silently downgraded.
func (sc *srvConn) preface() bool {
	body, err := ReadFrame(sc.conn, sc.maxFrame)
	if err != nil {
		return false
	}
	defer ReleaseFrame(body)
	sc.recv.Add(int64(len(body) + 8))
	h, msgType, payload, err := parseFrame(body)
	if err == nil && msgType != MsgHello {
		err = fmt.Errorf("connection opened with %s, want the hello preface", MsgName(msgType))
	}
	var ver byte
	if err == nil {
		ver, sc.tenant, err = DecodeHello(payload)
	}
	if err == nil && ver != MaxProtoVersion {
		err = fmt.Errorf("protocol version %d, want %d", ver, MaxProtoVersion)
	}
	reply := getFrameBuf(64)
	if err != nil {
		reply = AppendError(reply, ErrCodeBadRequest, err.Error())
	} else {
		reply = AppendOK(reply)
	}
	sendErr := sc.send(&frameHdr{sid: h.sid}, reply)
	putFrameBuf(reply)
	return err == nil && sendErr == nil
}

// readLoop demultiplexes the connection until EOF, a framing error, or
// a read deadline (the drain wake-up).
func (sc *srvConn) readLoop() {
	for {
		body, err := ReadFrame(sc.conn, sc.maxFrame)
		if err != nil {
			return
		}
		sc.recv.Add(int64(len(body) + 8))
		h, msgType, payload, err := parseFrame(body)
		if err != nil {
			// Broken framing on a multiplexed connection poisons every
			// stream on it: drop the connection, clients retry.
			ReleaseFrame(body)
			return
		}
		taken, err := sc.h.stream(sc, h, msgType, body, payload)
		if err != nil {
			return
		}
		if taken {
			continue
		}
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			reply, spans := sc.h.unary(sc.tenant, h, msgType, payload)
			ReleaseFrame(body)
			sc.send(&frameHdr{sid: h.sid, spans: spans}, reply)
			putFrameBuf(reply)
		}()
	}
}
