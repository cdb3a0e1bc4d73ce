package rpc

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/redist"
)

// server.go is the I/O-node daemon core: a concurrent TCP server that
// hosts the subfile Storage backends of one node and executes the
// view-driven scatter/gather requests against them. Connections run
// on the shared loop in conn.go; this file answers their requests.
// cmd/parafiled wraps it with
// flags and signal handling; tests run it in-process on a loopback
// listener.

// ServerConfig configures an I/O-node server.
type ServerConfig struct {
	// DataDir roots the subfile stores on disk (one file per subfile,
	// like the original Clusterfile I/O nodes). Empty keeps subfiles in
	// memory.
	DataDir string
	// MaxFrame bounds accepted frame bodies (DefaultMaxFrame when 0).
	MaxFrame int64
	// Metrics receives the server-side RPC series; nil records nothing.
	Metrics *obs.Registry
	// Trace opens server-side child spans (decode, lock wait,
	// scatter/gather, fsync) for requests whose frame
	// header carries a trace ID, and returns the completed records to
	// the caller. Off by default.
	Trace bool
	// Node labels this server's spans and log lines (defaults to
	// Tracer.Node(), else "ion").
	Node string
	// Tracer, when non-nil, additionally retains this server's
	// completed request spans for its own /debug/trace endpoint.
	Tracer *obs.Tracer
	// Log receives structured server events (slow requests, faults);
	// nil logs nothing.
	Log *slog.Logger
	// SlowOp logs a structured warning through Log for any request
	// slower than this threshold (0 disables).
	SlowOp time.Duration
	// QoS, when non-nil, runs every request through admission control:
	// data-plane requests are charged against the limiter's in-flight,
	// memory and per-tenant quota bounds (queueing under the fair-share
	// scheduler when the daemon is busy, shedding with a typed
	// ErrCodeOverloaded answer under sustained pressure), while
	// control-plane requests bypass the queue so pings, stats and epoch
	// fencing survive data-plane overload. The tenant key is the name
	// the connection's hello preface carried (empty falls into the
	// default class). Nil admits everything.
	QoS *qos.Limiter
}

// Server hosts subfile stores behind the wire protocol. One Server is
// one I/O node; a deployment runs one parafiled per node.
type Server struct {
	cfg  ServerConfig
	met  serverMetrics
	node string
	slow obs.SlowOpLogger

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	files    map[string]*serverFile
	projs    map[uint64]*redist.Projection
	draining atomic.Bool
	connWG   sync.WaitGroup
}

// serverFile is one file's node-local state: the stores of the
// subfiles this node hosts, guarded against concurrent connections.
type serverFile struct {
	mu     sync.Mutex
	stores map[int]clusterfile.Storage
	// epoch is the placement epoch the stores belong to (0 =
	// unversioned, a file outside the metadata service). It only
	// ratchets upward, via CreateFile stamps and MsgEpoch.
	epoch uint64
	// fenced rejects epoch-stamped writes while a rebalance copies the
	// stores to their next placement; reads keep flowing at the old
	// epoch until the flip.
	fenced bool
}

// epochCheck validates a request's placement epoch against the store
// generation. Called with sf.mu held; a zero request epoch (an
// unstamped request: the rebalance driver, a plain clusterfile over
// rpc) always passes.
func (sf *serverFile) epochCheck(epoch uint64, write bool) *RemoteError {
	if epoch == 0 {
		return nil
	}
	if sf.epoch != 0 && epoch != sf.epoch {
		return refusal(ErrCodeStalePlacement, "request at placement epoch %d, store at %d", epoch, sf.epoch)
	}
	if write && sf.fenced {
		return refusal(ErrCodeStalePlacement, "store fenced for rebalance at epoch %d", sf.epoch)
	}
	return nil
}

// refusal builds the answer to a request the server will not execute.
func refusal(code uint64, format string, args ...any) *RemoteError {
	return &RemoteError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// NewServer builds a server; call Serve with a listener to run it.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	node := cfg.Node
	if node == "" {
		node = cfg.Tracer.Node()
	}
	if node == "" {
		node = "ion"
	}
	return &Server{
		cfg:   cfg,
		met:   newServerMetrics(cfg.Metrics),
		node:  node,
		slow:  obs.SlowOpLogger{Log: cfg.Log, Threshold: cfg.SlowOp},
		conns: make(map[net.Conn]struct{}),
		files: make(map[string]*serverFile),
		projs: make(map[uint64]*redist.Projection),
	}
}

// qosOpOf classifies a message type for admission. Only the
// payload-bearing data-plane operations are subject to queueing and
// quotas; everything else — pings (breaker probes), stats, hellos,
// epoch fencing, checksums, metadata RPCs — is control-plane and must
// keep answering while the data plane sheds.
func qosOpOf(msgType byte) qos.Op {
	switch msgType {
	case MsgWriteSegs:
		return qos.OpWrite
	case MsgReadSegs:
		return qos.OpRead
	}
	return qos.OpControl
}

// isReplicaStoreOf reports whether name is a replica-tier store of
// base, exactly as clusterfile.ReplicaName produces them:
// base+"~r"+digits. A raw prefix match would also catch a distinct
// client file whose name merely starts with base+"~r" (e.g. "data~rX"
// alongside "data") and sweep its stores away with the base file's.
func isReplicaStoreOf(name, base string) bool {
	rest, ok := strings.CutPrefix(name, base+"~r")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// CheckFileName refuses a file name a daemon must not open stores
// under: a data directory store is the file "<name>.subfileNN" inside
// it, so an empty name, "." or "..", or a name holding a path
// separator or NUL would put it elsewhere.
func CheckFileName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("bad file name %q", name)
	}
	return nil
}

// overloaded turns an admission refusal into its answer: a typed
// ErrCodeOverloaded carrying the limiter's RetryAfter hint.
func overloaded(err error) *RemoteError {
	re := &RemoteError{Code: ErrCodeOverloaded, Msg: err.Error()}
	var ov *qos.Overload
	if errors.As(err, &ov) {
		re.RetryAfter = ov.RetryAfter
	}
	return re
}

// startSpan opens the server-side root span for one traced request
// (nil when tracing is off or the request carries no trace ID).
func (s *Server) startSpan(name string, traceID, parent uint64) *obs.Span {
	if !s.cfg.Trace || traceID == 0 {
		return nil
	}
	return obs.StartRemoteSpan("server."+name, s.node, traceID, parent)
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a graceful shutdown, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.met.conns.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish (bounded by ctx), then sync and close every store. Idle
// connections are woken and closed immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake connections blocked in ReadFrame: the read loop sees the
	// draining flag on the deadline error and exits cleanly. A request
	// already being processed still writes its response first.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for name, sf := range s.files {
		sf.mu.Lock()
		for _, st := range sf.stores {
			if err := st.Close(); err != nil && drainErr == nil {
				drainErr = fmt.Errorf("rpc: closing %q: %w", name, err)
			}
		}
		sf.mu.Unlock()
		delete(s.files, name)
		s.met.files.Add(-1)
	}
	return drainErr
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.met.conns.Add(-1)
		conn.Close()
		s.connWG.Done()
	}()
	// EOF, a peer reset, the drain wake-up or garbage framing all end
	// the loop the same way: this connection is done.
	serveConn(conn, s.cfg.MaxFrame, s.unary, s.met.recvBytes, s.met.sentBytes)
}

// unary answers one request of the shared connection loop. A request
// whose frame header carries a trace ID executes under a span adopted
// into the caller's trace, and the completed records ride back on the
// reply frame.
func (s *Server) unary(tenant string, h frameHdr, msgType byte, payload []byte) ([]byte, []obs.SpanRecord) {
	sp := s.startSpan(MsgName(msgType), h.trace, h.span)
	s.cfg.Tracer.Adopt(sp)
	resp := s.dispatch(getFrameBuf(64), msgType, payload, sp, tenant)
	if sp == nil {
		return resp, nil
	}
	if resp[0] == MsgError {
		sp.Fail()
	}
	s.cfg.Tracer.FinishOp(sp)
	return resp, sp.Records(nil)
}

// dispatch executes one parsed unary request and returns the reply
// message. Requests of one connection run concurrently; every handler
// locks the state it touches. sp is the server-side span of the
// request (nil for untraced requests — every handler is nil-safe).
// Admission charges the limiter exactly once per request: here for
// control-plane messages, in openSeg for the segment operations.
func (s *Server) dispatch(out []byte, msgType byte, payload []byte, sp *obs.Span, tenant string) []byte {
	start := time.Now()
	s.met.inflight.Add(1)
	defer func() {
		s.met.inflight.Add(-1)
		elapsed := time.Since(start)
		s.met.requestNs.Observe(elapsed.Nanoseconds())
		s.met.poolDiscards.Set(FramePoolDiscards())
		s.slow.Observe("rpc."+MsgName(msgType), sp.TraceID(), elapsed, nil)
	}()
	s.met.requests[msgType].Inc()
	if s.draining.Load() {
		return s.errResp(out, ErrCodeShuttingDown, "server draining")
	}
	if s.cfg.QoS != nil && qosOpOf(msgType) == qos.OpControl {
		rel, err := s.cfg.QoS.Acquire(context.Background(), tenant, qos.OpControl, int64(len(payload)))
		if err != nil {
			return s.refuse(out, overloaded(err))
		}
		defer rel()
	}
	switch msgType {
	case MsgCreateFile:
		return s.handleCreateFile(out, payload)
	case MsgSetView:
		return s.handleSetView(out, payload)
	case MsgWriteSegs:
		return s.handleWriteSegs(out, payload, sp, tenant)
	case MsgReadSegs:
		return s.handleReadSegs(out, payload, sp, tenant)
	case MsgStat:
		return s.handleStat(out, payload)
	case MsgClose:
		return s.handleClose(out, payload, sp)
	case MsgPing:
		// Liveness probe (breaker half-open): no file state touched.
		if err := Decode(payload, nil); err != nil {
			return s.errResp(out, ErrCodeBadRequest, err.Error())
		}
		return Encode(out, MsgOK, nil)
	case MsgChecksum:
		return s.handleChecksum(out, payload, sp)
	case MsgEpoch:
		return s.handleEpoch(out, payload)
	}
	return s.errResp(out, ErrCodeBadRequest, fmt.Sprintf("unknown message type %#x", msgType))
}

func (s *Server) handleChecksum(out, payload []byte, sp *obs.Span) []byte {
	var req ChecksumReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.Off < 0 || req.N < 0 {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("bad checksum range [%d,+%d)", req.Off, req.N))
	}
	sf, st, rerr := s.lookup(req.File, req.Subfile)
	if rerr != nil {
		return s.refuse(out, rerr)
	}
	lw := sp.StartChild("lock_wait")
	sf.mu.Lock()
	lw.End()
	defer sf.mu.Unlock()
	// Read-only: bytes beyond the store's length count as zeroes, so no
	// grow — scrubbing must never mutate what it audits.
	sum, err := clusterfile.ChecksumRange(st, req.Off, req.N)
	if err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	return Encode(out, MsgChecksumResp, &checksumResp{Sum: sum})
}

func (s *Server) errResp(out []byte, code uint64, msg string) []byte {
	s.met.errCounter(code).Inc()
	return appendError(out, &RemoteError{Code: code, Msg: msg})
}

// refuse encodes a refusal, RetryAfter hint included.
func (s *Server) refuse(out []byte, re *RemoteError) []byte {
	s.met.errCounter(re.Code).Inc()
	return appendError(out, re)
}

// storageFactory returns the factory for one CreateFile request.
func (s *Server) storageFactory(reopen bool) clusterfile.StorageFactory {
	if s.cfg.DataDir == "" {
		return clusterfile.MemStorageFactory
	}
	if reopen {
		return clusterfile.ReopenDirStorageFactory(s.cfg.DataDir)
	}
	return clusterfile.DirStorageFactory(s.cfg.DataDir)
}

func (s *Server) handleCreateFile(out, payload []byte) []byte {
	var req CreateFileReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if err := CheckFileName(req.Name); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if _, err := codec.DecodeFile(req.Phys); err != nil {
		return s.errResp(out, ErrCodeBadRequest, fmt.Sprintf("physical partition: %v", err))
	}
	s.mu.Lock()
	sf := s.files[req.Name]
	if sf == nil {
		sf = &serverFile{stores: make(map[int]clusterfile.Storage)}
		s.files[req.Name] = sf
		s.met.files.Add(1)
	}
	s.mu.Unlock()

	sf.mu.Lock()
	defer sf.mu.Unlock()
	// An epoch-stamped open versions the stores: the epoch only
	// ratchets upward, so a laggard's reopen at an old epoch cannot
	// roll a store generation back.
	if req.Epoch > sf.epoch {
		sf.epoch = req.Epoch
	}
	factory := s.storageFactory(req.Reopen)
	for _, sub := range req.Subfiles {
		if _, open := sf.stores[sub]; open {
			// Already open in this session (a retried CreateFile, or a
			// second client of the same file): keep the live store
			// rather than truncating data out from under it.
			continue
		}
		st, err := factory(req.Name, sub)
		if err != nil {
			return s.errResp(out, ErrCodeIO, fmt.Sprintf("subfile %d: %v", sub, err))
		}
		sf.stores[sub] = st
	}
	return Encode(out, MsgOK, nil)
}

// handleEpoch ratchets the placement epoch of every store of a file
// (base name plus its replica stores) and sets the write fence. A
// daemon hosting no store of the file answers OK — the rebalance
// driver fans the fence out to every node of the old placement without
// tracking which subfiles each one holds.
func (s *Server) handleEpoch(out, payload []byte) []byte {
	var req EpochReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.Epoch == 0 {
		return s.errResp(out, ErrCodeBadRequest, "zero placement epoch")
	}
	s.mu.Lock()
	var targets []*serverFile
	for name, sf := range s.files {
		if name == req.File || isReplicaStoreOf(name, req.File) {
			targets = append(targets, sf)
		}
	}
	s.mu.Unlock()
	for _, sf := range targets {
		sf.mu.Lock()
		if req.Epoch > sf.epoch {
			sf.epoch = req.Epoch
		}
		sf.fenced = req.Fence
		sf.mu.Unlock()
	}
	return Encode(out, MsgOK, nil)
}

func (s *Server) handleSetView(out, payload []byte) []byte {
	var req SetViewReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if got := Fingerprint(req.Proj); got != req.Fingerprint {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("projection fingerprint %#x does not match payload (%#x)", req.Fingerprint, got))
	}
	proj, err := redist.DecodeProjection(req.Proj)
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	s.mu.Lock()
	s.projs[req.Fingerprint] = proj
	s.mu.Unlock()
	return Encode(out, MsgOK, nil)
}

// lookup resolves (file, subfile) to its open store, or a refusal.
func (s *Server) lookup(file string, subfile int64) (*serverFile, clusterfile.Storage, *RemoteError) {
	s.mu.Lock()
	sf := s.files[file]
	s.mu.Unlock()
	if sf == nil {
		return nil, nil, refusal(ErrCodeUnknownFile, "file %q not open", file)
	}
	sf.mu.Lock()
	st := sf.stores[int(subfile)]
	sf.mu.Unlock()
	if st == nil {
		return nil, nil, refusal(ErrCodeUnknownFile, "subfile %d of %q not hosted here", subfile, file)
	}
	return sf, st, nil
}

// projection resolves a nonzero fingerprint.
func (s *Server) projection(fp uint64) (*redist.Projection, bool) {
	s.mu.Lock()
	p, ok := s.projs[fp]
	s.mu.Unlock()
	return p, ok
}

// segReq is the addressing the segment operations share, scatter and
// gather. n is the payload size: the bytes a write carries (zero makes
// it a pure EnsureLen) or a read asks for.
type segReq struct {
	file    string
	subfile int64
	fp      uint64
	lo, hi  int64
	n       int64
	epoch   uint64
	write   bool
}

// segTarget is what openSeg resolves a segReq to.
type segTarget struct {
	sf   *serverFile
	st   clusterfile.Storage
	proj *redist.Projection // nil = contiguous at lo
	// release returns the admission slot; call it when the operation
	// is over.
	release func()
}

// openSeg is the one prelude of every segment operation: validate the
// window and the payload size against what it selects, admit, look the
// store up, check the placement epoch and grow the subfile to hi+1.
// Nothing is admitted and no store is touched for a request refused by
// an earlier step — a malformed size can neither credit a tenant's
// quota nor leave a partial scatter behind. On success sf.mu is held.
func (s *Server) openSeg(tenant string, r *segReq, sp *obs.Span) (t segTarget, rerr *RemoteError) {
	if s.draining.Load() {
		return t, refusal(ErrCodeShuttingDown, "server draining")
	}
	if r.hi < r.lo-1 || r.lo < 0 || r.n < 0 {
		return t, refusal(ErrCodeBadRequest, "bad segment window [%d,%d] of %d bytes", r.lo, r.hi, r.n)
	}
	t.release = func() {}
	want := r.hi - r.lo + 1
	if r.fp != 0 {
		var ok bool
		if t.proj, ok = s.projection(r.fp); !ok {
			return t, refusal(ErrCodeUnknownProjection, "projection %#x not registered", r.fp)
		}
		want = t.proj.BytesIn(r.lo, r.hi)
	}
	if r.n != want && !(r.write && r.n == 0) {
		return t, refusal(ErrCodeBadRequest, "window [%d,%d] selects %d bytes, request carries %d",
			r.lo, r.hi, want, r.n)
	}
	if s.cfg.QoS != nil {
		op := qos.OpRead
		if r.write {
			op = qos.OpWrite
		}
		rel, err := s.cfg.QoS.Acquire(context.Background(), tenant, op, r.n)
		if err != nil {
			return t, overloaded(err)
		}
		t.release = rel
	}
	if t.sf, t.st, rerr = s.lookup(r.file, r.subfile); rerr != nil {
		t.release()
		return t, rerr
	}
	lw := sp.StartChild("lock_wait")
	t.sf.mu.Lock()
	lw.End()
	if rerr = t.sf.epochCheck(r.epoch, r.write); rerr == nil {
		// Reads grow too, like the in-process path: unwritten holes
		// read as zeroes, like any sparse file.
		if err := t.st.EnsureLen(r.hi + 1); err != nil {
			rerr = refusal(ErrCodeIO, "%v", err)
		}
	}
	if rerr != nil {
		t.sf.mu.Unlock()
		t.release()
	}
	return t, rerr
}

func (s *Server) handleWriteSegs(out, payload []byte, sp *obs.Span, tenant string) []byte {
	dsp := sp.StartChild("decode")
	req, err := DecodeWriteSegs(payload)
	dsp.End()
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	t, rerr := s.openSeg(tenant, &segReq{
		file: req.File, subfile: req.Subfile, fp: req.Fingerprint,
		lo: req.Lo, hi: req.Hi, n: int64(len(req.Data)), epoch: req.Epoch, write: true,
	}, sp)
	if rerr != nil {
		return s.refuse(out, rerr)
	}
	defer t.release()
	defer t.sf.mu.Unlock()
	if len(req.Data) == 0 {
		return Encode(out, MsgOK, nil)
	}
	ssp := sp.StartChild("scatter")
	if t.proj == nil {
		err = t.st.WriteAt(req.Data, req.Lo)
	} else {
		err = clusterfile.ScatterRange(t.st, req.Data, t.proj, req.Lo, req.Hi)
	}
	ssp.End()
	if err != nil {
		return s.errResp(out, ErrCodeIO, err.Error())
	}
	return Encode(out, MsgOK, nil)
}

func (s *Server) handleReadSegs(out, payload []byte, sp *obs.Span, tenant string) []byte {
	dsp := sp.StartChild("decode")
	req, err := decodeReadSegs(payload)
	dsp.End()
	if err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	if req.N > s.cfg.MaxFrame {
		return s.errResp(out, ErrCodeBadRequest,
			fmt.Sprintf("read of %d bytes exceeds the %d-byte frame cap", req.N, s.cfg.MaxFrame))
	}
	t, rerr := s.openSeg(tenant, &segReq{
		file: req.File, subfile: req.Subfile, fp: req.Fingerprint,
		lo: req.Lo, hi: req.Hi, n: req.N, epoch: req.Epoch,
	}, sp)
	if rerr != nil {
		return s.refuse(out, rerr)
	}
	defer t.release()
	defer t.sf.mu.Unlock()
	// Gather straight into the reply, behind its head.
	n := int(req.N)
	if cap(out) < n+16 {
		putFrameBuf(out)
		out = getFrameBuf(n + 16)
	}
	out = appendDataHead(out, n)
	data := out[len(out) : len(out)+n]
	gsp := sp.StartChild("gather")
	if t.proj == nil {
		err = t.st.ReadAt(data, req.Lo)
	} else {
		err = clusterfile.GatherRange(data, t.st, t.proj, req.Lo, req.Hi)
	}
	gsp.End()
	if err != nil {
		return s.errResp(out[:0], ErrCodeIO, err.Error())
	}
	return out[:len(out)+n]
}

func (s *Server) handleStat(out, payload []byte) []byte {
	var req StatReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	sf, st, rerr := s.lookup(req.File, req.Subfile)
	if rerr != nil {
		return s.refuse(out, rerr)
	}
	sf.mu.Lock()
	n := st.Len()
	sf.mu.Unlock()
	return Encode(out, MsgStatResp, &statResp{Len: n})
}

func (s *Server) handleClose(out, payload []byte, sp *obs.Span) []byte {
	var req CloseReq
	if err := Decode(payload, &req); err != nil {
		return s.errResp(out, ErrCodeBadRequest, err.Error())
	}
	s.mu.Lock()
	var targets []*serverFile
	if sf := s.files[req.File]; sf != nil {
		targets = append(targets, sf)
		delete(s.files, req.File)
		s.met.files.Add(-1)
	}
	if req.Remove {
		// A removing close also sweeps the file's replica stores
		// (name~r<r>): the rebalance GC retires a superseded store
		// generation whole, replicas included.
		for name, sf := range s.files {
			if isReplicaStoreOf(name, req.File) {
				targets = append(targets, sf)
				delete(s.files, name)
				s.met.files.Add(-1)
			}
		}
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		// Unknown file: already closed (a retried Close). Idempotent
		// success keeps blind client retry safe.
		return Encode(out, MsgOK, nil)
	}
	var firstErr error
	for _, sf := range targets {
		lw := sp.StartChild("lock_wait")
		sf.mu.Lock()
		lw.End()
		// Closing a disk-backed store syncs it — the op's fsync cost.
		// A removing close deletes the backing file instead, reclaiming
		// the superseded generation's disk without flushing it first.
		fsp := sp.StartChild("fsync")
		for _, st := range sf.stores {
			var err error
			if req.Remove {
				err = clusterfile.DiscardStorage(st)
			} else {
				err = st.Close()
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		fsp.End()
		sf.mu.Unlock()
	}
	if firstErr != nil {
		return s.errResp(out, ErrCodeIO, firstErr.Error())
	}
	return Encode(out, MsgOK, nil)
}
