package rpc

import (
	"context"

	"parafile/internal/codec"
)

// client_meta.go is the metadata-service half of the client: the
// MsgMeta* calls parafilemd answers. The metadata daemon speaks the
// same framing, connection loop and error protocol as the data
// daemons, so the calls ride the shared retry/breaker/mux machinery — a Client
// pointed at a parafilemd address just uses these methods instead of
// the storage ones.

// MetaCreate creates a namespace entry; the service computes the
// initial placement over its active nodes and returns the full record.
func (c *Client) MetaCreate(ctx context.Context, req *MetaCreateReq) (*MetaFile, error) {
	return request[MetaFile](ctx, c, MsgMetaCreate, req, MsgMetaFileResp)
}

// MetaOpen fetches the record of one file by name — the placement map
// clients cache and refetch on ErrStalePlacement.
func (c *Client) MetaOpen(ctx context.Context, name string) (*MetaFile, error) {
	return request[MetaFile](ctx, c, MsgMetaOpen, &MetaNameReq{Name: name}, MsgMetaFileResp)
}

// MetaList returns every namespace entry, name-sorted.
func (c *Client) MetaList(ctx context.Context) ([]*MetaFile, error) {
	r, err := request[MetaListResp](ctx, c, MsgMetaList, nil, MsgMetaListResp)
	if err != nil {
		return nil, err
	}
	return r.Files, nil
}

// MetaRemove deletes a namespace entry. The daemon-side stores are the
// caller's to reap; the service only forgets the name.
func (c *Client) MetaRemove(ctx context.Context, name string) error {
	return c.roundTrip(ctx, MsgMetaRemove, &MetaNameReq{Name: name}, MsgOK, nil)
}

// MetaCommit performs the compare-and-swap placement flip after a
// rebalance and returns the committed record (epoch OldEpoch+1). A
// file that moved past OldEpoch answers ErrStalePlacement and nothing
// changes.
func (c *Client) MetaCommit(ctx context.Context, req *MetaCommitReq) (*MetaFile, error) {
	return request[MetaFile](ctx, c, MsgMetaCommit, req, MsgMetaFileResp)
}

// MetaExtend ratchets the file's logical length (shrinks are ignored)
// and returns the current record.
func (c *Client) MetaExtend(ctx context.Context, name string, length int64) (*MetaFile, error) {
	return request[MetaFile](ctx, c, MsgMetaExtend, &MetaExtendReq{Name: name, Length: length}, MsgMetaFileResp)
}

// MetaNodes returns the cluster membership table.
func (c *Client) MetaNodes(ctx context.Context) ([]MetaNode, error) {
	return c.nodes(ctx, MsgMetaNodes, nil)
}

// MetaNodeSet registers a node or changes its membership state and
// returns the updated table.
func (c *Client) MetaNodeSet(ctx context.Context, addr string, state byte) ([]MetaNode, error) {
	return c.nodes(ctx, MsgMetaNode, &MetaNode{Addr: addr, State: state})
}

// nodes sends a request answered with the membership table.
func (c *Client) nodes(ctx context.Context, t byte, req codec.Message) ([]MetaNode, error) {
	r, err := request[MetaNodesResp](ctx, c, t, req, MsgMetaNodesResp)
	if err != nil {
		return nil, err
	}
	return r.Nodes, nil
}

// MetaVote asks a peer for its ballot in a leader election round.
func (c *Client) MetaVote(ctx context.Context, req *MetaVoteReq) (*MetaVoteResp, error) {
	return request[MetaVoteResp](ctx, c, MsgMetaVote, req, MsgMetaVoteResp)
}

// MetaAppendEntries ships a log batch (or an empty heartbeat) to a
// follower. Duplicate delivery is safe: the follower skips entries at
// or below its log tail, so the shared retry machinery applies.
func (c *Client) MetaAppendEntries(ctx context.Context, req *MetaAppendReq) (*MetaAppendResp, error) {
	return request[MetaAppendResp](ctx, c, MsgMetaAppend, req, MsgMetaAppendResp)
}

// MetaSnapInstall transfers a full serialized namespace state to a
// diverged follower, which installs it atomically.
func (c *Client) MetaSnapInstall(ctx context.Context, req *MetaSnapInstallReq) (*MetaAppendResp, error) {
	return request[MetaAppendResp](ctx, c, MsgMetaSnapInstall, req, MsgMetaAppendResp)
}

// MetaStatus asks a metadata node for its replication status.
func (c *Client) MetaStatus(ctx context.Context) (*MetaStatusInfo, error) {
	return request[MetaStatusInfo](ctx, c, MsgMetaStatus, nil, MsgMetaStatusResp)
}
