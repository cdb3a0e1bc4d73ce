// Metadata replication wire messages: leader election ballots, log
// shipping (which doubles as the lease heartbeat), full-state snapshot
// install, and the replication status probe. They ride the same
// framing, connection loop, and error encoding as everything else;
// only parafilemd peers exchange them.

package rpc

import "parafile/internal/codec"

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

// Wire codes the ballot.
func (r *MetaVoteReq) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.String(&r.Candidate)
	c.Uvarint(&r.LastIndex)
	c.Uvarint(&r.LastTerm)
}

// MetaVoteResp is the voter's verdict plus its current term, so a
// stale candidate learns the term it must catch up to.
type MetaVoteResp struct {
	Term    uint64
	Granted bool
}

// Wire codes the verdict.
func (r *MetaVoteResp) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.Bool(&r.Granted)
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

// Wire codes the batch; entry payloads are copied out of the frame.
func (r *MetaAppendReq) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.String(&r.Leader)
	c.Uvarint(&r.PrevIndex)
	c.Uvarint(&r.PrevTerm)
	codec.List(c, &r.Entries)
	for i := range r.Entries {
		e := &r.Entries[i]
		c.Uvarint(&e.Index)
		c.Uvarint(&e.Term)
		c.BytesCopy(&e.Payload)
	}
}

// MetaAppendResp acks or nacks an append batch (and snapshot
// installs). LastIndex reports the follower's log tail either way, so
// the leader can track replication lag.
type MetaAppendResp struct {
	Term      uint64
	OK        bool
	LastIndex uint64
}

// Wire codes the answer.
func (r *MetaAppendResp) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.Bool(&r.OK)
	c.Uvarint(&r.LastIndex)
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

// Wire codes the request; State is copied out of the frame.
func (r *MetaSnapInstallReq) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.String(&r.Leader)
	c.Uvarint(&r.LastIndex)
	c.Uvarint(&r.LastTerm)
	c.BytesCopy(&r.State)
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

// Wire codes the status.
func (r *MetaStatusInfo) Wire(c *codec.Coder) {
	c.Uvarint(&r.Term)
	c.String(&r.Role)
	c.String(&r.Leader)
	c.String(&r.Self)
	c.Uvarint(&r.LastIndex)
	c.Uvarint(&r.LastTerm)
	c.Varint(&r.LeaseMs)
	c.Varint(&r.Peers)
}
