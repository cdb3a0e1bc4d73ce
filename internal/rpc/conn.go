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
// demultiplexes tagged frames, every request runs in its own
// goroutine, and replies serialize under a write lock, so a slow
// request never blocks the ones queued behind it on the same socket.

// handler answers one request of a served connection: tenant is the
// class the connection's preface named and h the frame's routing
// header (the caller's trace context). It returns the reply message in
// a pooled buffer (the loop releases it) plus the span records to ride
// back on the reply frame.
type handler func(tenant string, h frameHdr, msgType byte, payload []byte) (reply []byte, spans []obs.SpanRecord)

// Handler answers one request of a daemon that does not trace:
// tenant is the class the connection's preface named, the result a
// reply message built by Encode.
type Handler func(tenant string, msgType byte, payload []byte) []byte

// ServeConn runs the protocol's connection loop on an accepted
// connection until it drops, answering every request through h. The
// caller closes conn.
func ServeConn(conn net.Conn, maxFrame int64, h Handler) {
	serveConn(conn, maxFrame, func(tenant string, _ frameHdr, msgType byte, payload []byte) ([]byte, []obs.SpanRecord) {
		return h(tenant, msgType, payload), nil
	}, nil, nil)
}

// srvConn is one served connection.
type srvConn struct {
	conn       net.Conn
	maxFrame   int64
	h          handler
	recv, sent *obs.Counter
	// tenant is the fair-share class the preface named, fixed for the
	// connection's lifetime (the request goroutines only read it).
	tenant string

	// wmu serializes outgoing frames across all streams.
	wmu sync.Mutex
	// wg tracks every request goroutine of this connection.
	wg sync.WaitGroup
}

// serveConn runs one connection until it drops, then waits for the
// request goroutines.
func serveConn(conn net.Conn, maxFrame int64, h handler, recv, sent *obs.Counter) {
	sc := &srvConn{conn: conn, maxFrame: maxFrame, h: h, recv: recv, sent: sent}
	if sc.preface() {
		sc.readLoop()
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
	var hl hello
	if err == nil {
		err = Decode(payload, &hl)
		sc.tenant = hl.Tenant
	}
	if err == nil && hl.Ver != MaxProtoVersion {
		err = fmt.Errorf("protocol version %d, want %d", hl.Ver, MaxProtoVersion)
	}
	reply := getFrameBuf(64)
	if err != nil {
		reply = appendError(reply, &RemoteError{Code: ErrCodeBadRequest, Msg: err.Error()})
	} else {
		reply = Encode(reply, MsgOK, nil)
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
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			reply, spans := sc.h(sc.tenant, h, msgType, payload)
			ReleaseFrame(body)
			sc.send(&frameHdr{sid: h.sid, spans: spans}, reply)
			putFrameBuf(reply)
		}()
	}
}
