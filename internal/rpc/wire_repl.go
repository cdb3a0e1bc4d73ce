// Metadata replication wire messages: leader election ballots, log
// shipping (which doubles as the lease heartbeat), full-state snapshot
// install, and the replication status probe. They ride the same
// framing, connection loop, and error encoding as everything else;
// only parafilemd peers exchange them.

package rpc

import (
	"fmt"

	"parafile/internal/codec"
)

// maxReplEntries bounds a decoded log-shipping batch. The leader ships
// one mutation per batch in steady state; the cap only stops a corrupt
// count from allocating the machine away.
const maxReplEntries = 1 << 12

// ReplEntry is one replicated namespace log record: the leader's log
// position and the raw store record payload (the same bytes the
// leader's crash-safe log framed).
type ReplEntry struct {
	Index   uint64
	Term    uint64
	Payload []byte
}

// MetaVoteReq is a leader-election ballot: the candidate names the
// term it is campaigning in and its log tail, and the voter grants
// only if the candidate's log is at least as up to date as its own.
type MetaVoteReq struct {
	Term      uint64
	Candidate string // candidate's advertised address
	LastIndex uint64
	LastTerm  uint64
}

// AppendMetaVote encodes req as a message.
func AppendMetaVote(buf []byte, req *MetaVoteReq) []byte {
	buf = beginMsg(buf, MsgMetaVote)
	buf = codec.AppendUvarint(buf, req.Term)
	buf = appendString(buf, req.Candidate)
	buf = codec.AppendUvarint(buf, req.LastIndex)
	buf = codec.AppendUvarint(buf, req.LastTerm)
	return buf
}

// DecodeMetaVote decodes a MsgMetaVote payload.
func DecodeMetaVote(payload []byte) (*MetaVoteReq, error) {
	req := &MetaVoteReq{}
	var err error
	if req.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Candidate, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.LastIndex, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.LastTerm, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// MetaVoteResp is the voter's verdict plus its current term, so a
// stale candidate learns the term it must catch up to.
type MetaVoteResp struct {
	Term    uint64
	Granted bool
}

// AppendMetaVoteResp encodes resp as a message.
func AppendMetaVoteResp(buf []byte, resp *MetaVoteResp) []byte {
	buf = beginMsg(buf, MsgMetaVoteResp)
	buf = codec.AppendUvarint(buf, resp.Term)
	if resp.Granted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeMetaVoteResp decodes a MsgMetaVoteResp payload.
func DecodeMetaVoteResp(payload []byte) (*MetaVoteResp, error) {
	resp := &MetaVoteResp{}
	var err error
	if resp.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: vote response without verdict byte", ErrCorrupt)
	}
	resp.Granted = payload[0] != 0
	return resp, wantEmpty(payload[1:])
}

// MetaAppendReq ships log records from the leader to a follower. An
// empty Entries slice is the lease heartbeat. PrevIndex/PrevTerm name
// the entry immediately before the batch; a follower whose tail does
// not match nacks, and the leader falls back to a full snapshot
// install (the namespace is small; state transfer is the repair path,
// there is no per-index history to walk).
type MetaAppendReq struct {
	Term      uint64
	Leader    string // leader's advertised address (redirect hint)
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []ReplEntry
}

// AppendMetaAppend encodes req as a message.
func AppendMetaAppend(buf []byte, req *MetaAppendReq) []byte {
	buf = beginMsg(buf, MsgMetaAppend)
	buf = codec.AppendUvarint(buf, req.Term)
	buf = appendString(buf, req.Leader)
	buf = codec.AppendUvarint(buf, req.PrevIndex)
	buf = codec.AppendUvarint(buf, req.PrevTerm)
	buf = codec.AppendUvarint(buf, uint64(len(req.Entries)))
	for i := range req.Entries {
		e := &req.Entries[i]
		buf = codec.AppendUvarint(buf, e.Index)
		buf = codec.AppendUvarint(buf, e.Term)
		buf = appendBytes(buf, e.Payload)
	}
	return buf
}

// DecodeMetaAppend decodes a MsgMetaAppend payload. Entry payloads are
// copied out of the frame buffer.
func DecodeMetaAppend(payload []byte) (*MetaAppendReq, error) {
	req := &MetaAppendReq{}
	var err error
	if req.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Leader, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.PrevIndex, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.PrevTerm, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > maxReplEntries {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, n)
	}
	req.Entries = make([]ReplEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e ReplEntry
		if e.Index, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		if e.Term, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		var p []byte
		if p, payload, err = readBytes(payload); err != nil {
			return nil, err
		}
		e.Payload = append([]byte(nil), p...)
		req.Entries = append(req.Entries, e)
	}
	return req, wantEmpty(payload)
}

// MetaAppendResp acks or nacks an append batch (and snapshot
// installs). LastIndex reports the follower's log tail either way, so
// the leader can track replication lag.
type MetaAppendResp struct {
	Term      uint64
	OK        bool
	LastIndex uint64
}

// AppendMetaAppendResp encodes resp as a message.
func AppendMetaAppendResp(buf []byte, resp *MetaAppendResp) []byte {
	buf = beginMsg(buf, MsgMetaAppendResp)
	buf = codec.AppendUvarint(buf, resp.Term)
	if resp.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = codec.AppendUvarint(buf, resp.LastIndex)
	return buf
}

// DecodeMetaAppendResp decodes a MsgMetaAppendResp payload.
func DecodeMetaAppendResp(payload []byte) (*MetaAppendResp, error) {
	resp := &MetaAppendResp{}
	var err error
	if resp.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: append response without verdict byte", ErrCorrupt)
	}
	resp.OK = payload[0] != 0
	payload = payload[1:]
	if resp.LastIndex, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return resp, wantEmpty(payload)
}

// MetaSnapInstallReq transfers a full serialized namespace state
// (meta.Store.SerializeState bytes) to a diverged or lagging follower.
// LastIndex/LastTerm are the log position the state covers; after an
// atomic install the follower's log restarts empty past that point.
type MetaSnapInstallReq struct {
	Term      uint64
	Leader    string
	LastIndex uint64
	LastTerm  uint64
	State     []byte
}

// AppendMetaSnapInstall encodes req as a message.
func AppendMetaSnapInstall(buf []byte, req *MetaSnapInstallReq) []byte {
	buf = beginMsg(buf, MsgMetaSnapInstall)
	buf = codec.AppendUvarint(buf, req.Term)
	buf = appendString(buf, req.Leader)
	buf = codec.AppendUvarint(buf, req.LastIndex)
	buf = codec.AppendUvarint(buf, req.LastTerm)
	buf = appendBytes(buf, req.State)
	return buf
}

// DecodeMetaSnapInstall decodes a MsgMetaSnapInstall payload. State is
// copied out of the frame buffer.
func DecodeMetaSnapInstall(payload []byte) (*MetaSnapInstallReq, error) {
	req := &MetaSnapInstallReq{}
	var err error
	if req.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Leader, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.LastIndex, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.LastTerm, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	var state []byte
	if state, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	req.State = append([]byte(nil), state...)
	return req, wantEmpty(payload)
}

// Replication roles reported by MetaStatus.
const (
	RoleFollower   = "follower"
	RoleCandidate  = "candidate"
	RoleLeader     = "leader"
	RoleStandalone = "standalone"
)

// MetaStatusInfo is one metadata node's view of the replication group.
type MetaStatusInfo struct {
	Term      uint64
	Role      string
	Leader    string // address of the node believed to hold the lease
	Self      string // answering node's advertised address
	LastIndex uint64
	LastTerm  uint64
	// LeaseMs is the leaseholder's remaining lease in milliseconds
	// (zero on followers and lapsed leaders).
	LeaseMs int64
	// Peers is the configured group size (1 for standalone).
	Peers int64
}

// AppendMetaStatus encodes the empty status probe.
func AppendMetaStatus(buf []byte) []byte { return beginMsg(buf, MsgMetaStatus) }

// AppendMetaStatusResp encodes info as a message.
func AppendMetaStatusResp(buf []byte, info *MetaStatusInfo) []byte {
	buf = beginMsg(buf, MsgMetaStatusResp)
	buf = codec.AppendUvarint(buf, info.Term)
	buf = appendString(buf, info.Role)
	buf = appendString(buf, info.Leader)
	buf = appendString(buf, info.Self)
	buf = codec.AppendUvarint(buf, info.LastIndex)
	buf = codec.AppendUvarint(buf, info.LastTerm)
	buf = codec.AppendVarint(buf, info.LeaseMs)
	buf = codec.AppendVarint(buf, info.Peers)
	return buf
}

// DecodeMetaStatusResp decodes a MsgMetaStatusResp payload.
func DecodeMetaStatusResp(payload []byte) (*MetaStatusInfo, error) {
	info := &MetaStatusInfo{}
	var err error
	if info.Term, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if info.Role, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if info.Leader, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if info.Self, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if info.LastIndex, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if info.LastTerm, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if info.LeaseMs, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if info.Peers, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return info, wantEmpty(payload)
}
