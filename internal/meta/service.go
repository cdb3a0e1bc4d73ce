package meta

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

	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// service.go is the parafilemd daemon: it serves accepted connections
// through the storage wire's connection loop (rpc.ServeConn — hello
// preface, multiplexed frames, MsgError) but answers the
// namespace/placement messages instead of the data-path ones. Requests
// of one connection run concurrently, so a status probe or a read is
// never parked behind a mutation waiting on its fsync or quorum.

// DefaultStripeBytes is the striping unit a create without an explicit
// stripe gets: subfile s holds bytes [s*W, (s+1)*W) of each period.
const DefaultStripeBytes = 64 << 10

// ServiceConfig configures a metadata service.
type ServiceConfig struct {
	// Store is the durable namespace state (required).
	Store *Store
	// MaxFrame bounds accepted frame bodies (rpc.DefaultMaxFrame if 0).
	MaxFrame int64
	// Metrics receives the request series; nil records nothing.
	Metrics *obs.Registry
	// Log receives structured events; nil logs nothing.
	Log *slog.Logger
	// Fault, when non-nil, interposes on accepted connections
	// (fault.OpDial, node 0) for robustness tests.
	Fault *fault.Injector
	// Group, when non-nil, is the replication group this node belongs
	// to. Namespace traffic is then gated on the leader lease (others
	// answer ErrCodeNotLeader with a redirect hint) and the peer
	// replication messages are routed into the group. Nil runs the
	// pre-replication single-node behavior unchanged.
	Group *Group
}

// Service serves the metadata protocol on accepted connections.
type Service struct {
	cfg ServiceConfig

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	ln       net.Listener
	draining atomic.Bool
	connWG   sync.WaitGroup

	metRequests map[byte]*obs.Counter
	metErrors   *obs.Counter
}

// NewService builds a metadata service over the given store.
func NewService(cfg ServiceConfig) *Service {
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = rpc.DefaultMaxFrame
	}
	s := &Service{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		s.metRequests = make(map[byte]*obs.Counter)
		for _, t := range []byte{
			rpc.MsgPing,
			rpc.MsgMetaCreate, rpc.MsgMetaOpen, rpc.MsgMetaList, rpc.MsgMetaRemove,
			rpc.MsgMetaCommit, rpc.MsgMetaExtend, rpc.MsgMetaNodes, rpc.MsgMetaNode,
			rpc.MsgMetaVote, rpc.MsgMetaAppend, rpc.MsgMetaSnapInstall, rpc.MsgMetaStatus,
		} {
			s.metRequests[t] = reg.Counter(
				fmt.Sprintf("parafile_meta_requests_total{type=%q}", rpc.MsgName(t)))
		}
		s.metErrors = reg.Counter("parafile_meta_errors_total")
	}
	return s
}

// Serve accepts connections until the listener closes.
func (s *Service) Serve(ln net.Listener) error {
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
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Shutdown stops accepting, closes every connection and waits for the
// handlers (bounded by ctx).
func (s *Service) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connWG.Done()
	}()
	if inj := s.cfg.Fault; inj != nil {
		if err := inj.Fire(context.Background(), 0, fault.OpDial, ""); err != nil {
			return
		}
	}
	rpc.ServeConn(conn, s.cfg.MaxFrame, s.route)
}

// route answers one request; the tenant a connection names is unused,
// the metadata service runs no admission control.
func (s *Service) route(_ string, msgType byte, payload []byte) []byte {
	if c := s.metRequests[msgType]; c != nil {
		c.Inc()
	}
	switch msgType {
	case rpc.MsgPing:
		if len(payload) != 0 {
			return s.errResp(rpc.ErrCodeBadRequest, "ping with payload")
		}
		return rpc.Encode(nil, rpc.MsgOK, nil)
	case rpc.MsgMetaVote:
		return s.handleVote(payload)
	case rpc.MsgMetaAppend:
		return s.handleAppendEntries(payload)
	case rpc.MsgMetaSnapInstall:
		return s.handleSnapInstall(payload)
	case rpc.MsgMetaStatus:
		if len(payload) != 0 {
			return s.errResp(rpc.ErrCodeBadRequest, "status with payload")
		}
		return s.handleStatus()
	}
	// Everything else is namespace traffic: reads included, it is only
	// served while this node holds the leader lease, so a client can
	// never observe a stale namespace from a deposed or lagging node.
	if resp := s.notLeader(); resp != nil {
		return resp
	}
	switch msgType {
	case rpc.MsgMetaCreate:
		return s.handleCreate(payload)
	case rpc.MsgMetaOpen:
		return s.handleOpen(payload)
	case rpc.MsgMetaList:
		if len(payload) != 0 {
			return s.errResp(rpc.ErrCodeBadRequest, "list with payload")
		}
		return rpc.Encode(nil, rpc.MsgMetaListResp, &rpc.MetaListResp{Files: s.cfg.Store.List()})
	case rpc.MsgMetaRemove:
		return s.handleRemove(payload)
	case rpc.MsgMetaCommit:
		return s.handleCommit(payload)
	case rpc.MsgMetaExtend:
		return s.handleExtend(payload)
	case rpc.MsgMetaNodes:
		if len(payload) != 0 {
			return s.errResp(rpc.ErrCodeBadRequest, "nodes with payload")
		}
		return rpc.Encode(nil, rpc.MsgMetaNodesResp, &rpc.MetaNodesResp{Nodes: s.cfg.Store.Nodes()})
	case rpc.MsgMetaNode:
		return s.handleNode(payload)
	}
	return s.errResp(rpc.ErrCodeBadRequest, fmt.Sprintf("unknown message type %#x", msgType))
}

// notLeader answers non-nil when namespace traffic must be refused:
// this node is grouped and does not hold a live leader lease. The
// response carries the believed leader as a redirect hint and a small
// retry delay for the election window, when there is no leader at all.
func (s *Service) notLeader() []byte {
	g := s.cfg.Group
	if g == nil || g.IsLeader() {
		return nil
	}
	if s.metErrors != nil {
		s.metErrors.Inc()
	}
	hint := g.LeaderHint()
	retry := time.Duration(0)
	if hint == "" {
		retry = 50 * time.Millisecond
	}
	return rpc.Encode(nil, rpc.MsgError, &rpc.RemoteError{Code: rpc.ErrCodeNotLeader,
		Msg: "not the metadata leader", RetryAfter: retry, Leader: hint})
}

func (s *Service) handleVote(payload []byte) []byte {
	var req rpc.MetaVoteReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if s.cfg.Group == nil {
		return s.errResp(rpc.ErrCodeBadRequest, "node is not part of a replication group")
	}
	return rpc.Encode(nil, rpc.MsgMetaVoteResp, s.cfg.Group.HandleVote(&req))
}

func (s *Service) handleAppendEntries(payload []byte) []byte {
	var req rpc.MetaAppendReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if s.cfg.Group == nil {
		return s.errResp(rpc.ErrCodeBadRequest, "node is not part of a replication group")
	}
	return rpc.Encode(nil, rpc.MsgMetaAppendResp, s.cfg.Group.HandleAppend(context.Background(), &req))
}

func (s *Service) handleSnapInstall(payload []byte) []byte {
	var req rpc.MetaSnapInstallReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if s.cfg.Group == nil {
		return s.errResp(rpc.ErrCodeBadRequest, "node is not part of a replication group")
	}
	return rpc.Encode(nil, rpc.MsgMetaAppendResp, s.cfg.Group.HandleSnapInstall(context.Background(), &req))
}

// handleStatus answers on any node, leader or not — it is how clients
// and operators discover the leader in the first place.
func (s *Service) handleStatus() []byte {
	if g := s.cfg.Group; g != nil {
		return rpc.Encode(nil, rpc.MsgMetaStatusResp, g.Status())
	}
	idx, trm := s.cfg.Store.LastEntry()
	return rpc.Encode(nil, rpc.MsgMetaStatusResp, &rpc.MetaStatusInfo{
		Term:      s.cfg.Store.Term(),
		Role:      rpc.RoleStandalone,
		LastIndex: idx,
		LastTerm:  trm,
		Peers:     1,
	})
}

// checkNamespaceName refuses a name a file cannot be created under:
// one the daemons refuse (rpc.CheckFileName), or one holding '@' or
// '~', which the store names of other files' generations ("name@N")
// and replica tiers ("name~rR") use — a file created as "a@2" would
// share stores with a rebalance of "a".
func checkNamespaceName(name string) error {
	if err := rpc.CheckFileName(name); err != nil {
		return err
	}
	if strings.ContainsAny(name, "@~") {
		return fmt.Errorf("bad file name %q: '@' and '~' are reserved for store names", name)
	}
	return nil
}

// handleCreate computes the initial placement over the active nodes:
// one subfile per active node, identity assign, epoch 1.
func (s *Service) handleCreate(payload []byte) []byte {
	var req rpc.MetaCreateReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if err := checkNamespaceName(req.Name); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	stripe := req.StripeBytes
	if stripe == 0 {
		stripe = DefaultStripeBytes
	}
	if stripe < 1 {
		return s.errResp(rpc.ErrCodeBadRequest, fmt.Sprintf("bad stripe %d", stripe))
	}
	repl := req.Replication
	if repl == 0 {
		repl = 1
	}
	active := s.cfg.Store.ActiveNodes()
	if len(active) == 0 {
		return s.errResp(rpc.ErrCodeIO, "no active data nodes registered")
	}
	if repl < 1 || repl > len(active) {
		return s.errResp(rpc.ErrCodeBadRequest,
			fmt.Sprintf("replication %d outside [1,%d active nodes]", repl, len(active)))
	}
	assign := make([]int, len(active))
	for i := range assign {
		assign[i] = i
	}
	f := &rpc.MetaFile{
		Name:        req.Name,
		StripeBytes: stripe,
		Replication: repl,
		Epoch:       1,
		StoreName:   req.Name,
		Nodes:       active,
		Assign:      assign,
	}
	if err := s.cfg.Store.Create(context.Background(), f); err != nil {
		return s.storeErr(err)
	}
	s.logf("meta create", "file", f.Name, "nodes", len(f.Nodes), "replication", repl)
	return rpc.Encode(nil, rpc.MsgMetaFileResp, f)
}

func (s *Service) handleOpen(payload []byte) []byte {
	var req rpc.MetaNameReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	f, err := s.cfg.Store.Get(req.Name)
	if err != nil {
		return s.storeErr(err)
	}
	return rpc.Encode(nil, rpc.MsgMetaFileResp, f)
}

func (s *Service) handleRemove(payload []byte) []byte {
	var req rpc.MetaNameReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if err := s.cfg.Store.Remove(context.Background(), req.Name); err != nil {
		return s.storeErr(err)
	}
	return rpc.Encode(nil, rpc.MsgOK, nil)
}

func (s *Service) handleCommit(payload []byte) []byte {
	var req rpc.MetaCommitReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	f, err := s.cfg.Store.Commit(context.Background(), &req)
	if err != nil {
		return s.storeErr(err)
	}
	s.logf("meta commit", "file", f.Name, "epoch", f.Epoch, "store", f.StoreName, "nodes", len(f.Nodes))
	return rpc.Encode(nil, rpc.MsgMetaFileResp, f)
}

func (s *Service) handleExtend(payload []byte) []byte {
	var req rpc.MetaExtendReq
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	if req.Length < 0 {
		return s.errResp(rpc.ErrCodeBadRequest, fmt.Sprintf("negative length %d", req.Length))
	}
	f, err := s.cfg.Store.Extend(context.Background(), req.Name, req.Length)
	if err != nil {
		return s.storeErr(err)
	}
	return rpc.Encode(nil, rpc.MsgMetaFileResp, f)
}

func (s *Service) handleNode(payload []byte) []byte {
	var req rpc.MetaNode
	if err := rpc.Decode(payload, &req); err != nil {
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	nodes, err := s.cfg.Store.SetNode(context.Background(), req.Addr, req.State)
	if err != nil {
		return s.storeErr(err)
	}
	s.logf("meta node", "addr", req.Addr, "state", rpc.NodeStateName(req.State))
	return rpc.Encode(nil, rpc.MsgMetaNodesResp, &rpc.MetaNodesResp{Nodes: nodes})
}

// storeErr maps a store error onto the wire's error codes. A mutation
// refused by a leader that lost its term mid-round answers NotLeader,
// so the client's leader chase retries it on the new leader.
func (s *Service) storeErr(err error) []byte {
	if errors.Is(err, ErrNotCommitted) {
		if resp := s.notLeader(); resp != nil {
			return resp
		}
	}
	switch {
	case errors.Is(err, ErrNotFound):
		return s.errResp(rpc.ErrCodeUnknownFile, err.Error())
	case errors.Is(err, ErrStaleEpoch):
		return s.errResp(rpc.ErrCodeStalePlacement, err.Error())
	case errors.Is(err, ErrExists), errors.Is(err, ErrNodeBusy):
		return s.errResp(rpc.ErrCodeBadRequest, err.Error())
	}
	return s.errResp(rpc.ErrCodeIO, err.Error())
}

func (s *Service) errResp(code uint64, msg string) []byte {
	if s.metErrors != nil {
		s.metErrors.Inc()
	}
	return rpc.Encode(nil, rpc.MsgError, &rpc.RemoteError{Code: code, Msg: msg})
}

func (s *Service) logf(msg string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Info(msg, args...)
	}
}
