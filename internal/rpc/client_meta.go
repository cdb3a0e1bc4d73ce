package rpc

import "context"

// client_meta.go is the metadata-service half of the client: the
// MsgMeta* calls parafilemd answers. The metadata daemon speaks the
// same framing, connection loop and error protocol as the data
// daemons, so the calls ride the shared retry/breaker/mux machinery — a Client
// pointed at a parafilemd address just uses these methods instead of
// the storage ones.

// metaFileCall is one request returning a MsgMetaFileResp.
func (c *Client) metaFileCall(ctx context.Context, req []byte) (*MetaFile, error) {
	f, err := c.call(ctx, req)
	putFrameBuf(req)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaFileResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaFileResp(payload)
}

// MetaCreate creates a namespace entry; the service computes the
// initial placement over its active nodes and returns the full record.
func (c *Client) MetaCreate(ctx context.Context, req *MetaCreateReq) (*MetaFile, error) {
	return c.metaFileCall(ctx, AppendMetaCreate(getFrameBuf(64), req))
}

// MetaOpen fetches the record of one file by name — the placement map
// clients cache and refetch on ErrStalePlacement.
func (c *Client) MetaOpen(ctx context.Context, name string) (*MetaFile, error) {
	return c.metaFileCall(ctx, AppendMetaName(getFrameBuf(64), MsgMetaOpen, name))
}

// MetaList returns every namespace entry, name-sorted.
func (c *Client) MetaList(ctx context.Context) ([]*MetaFile, error) {
	req := AppendMetaEmpty(getFrameBuf(8), MsgMetaList)
	f, err := c.call(ctx, req)
	putFrameBuf(req)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaListResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaListResp(payload)
}

// MetaRemove deletes a namespace entry. The daemon-side stores are the
// caller's to reap; the service only forgets the name.
func (c *Client) MetaRemove(ctx context.Context, name string) error {
	return c.exchange(ctx, AppendMetaName(getFrameBuf(64), MsgMetaRemove, name))
}

// MetaCommit performs the compare-and-swap placement flip after a
// rebalance and returns the committed record (epoch OldEpoch+1). A
// file that moved past OldEpoch answers ErrStalePlacement and nothing
// changes.
func (c *Client) MetaCommit(ctx context.Context, req *MetaCommitReq) (*MetaFile, error) {
	return c.metaFileCall(ctx, AppendMetaCommit(getFrameBuf(128), req))
}

// MetaExtend ratchets the file's logical length (shrinks are ignored)
// and returns the current record.
func (c *Client) MetaExtend(ctx context.Context, name string, length int64) (*MetaFile, error) {
	return c.metaFileCall(ctx, AppendMetaExtend(getFrameBuf(64), &MetaExtendReq{Name: name, Length: length}))
}

// MetaNodes returns the cluster membership table.
func (c *Client) MetaNodes(ctx context.Context) ([]MetaNode, error) {
	req := AppendMetaEmpty(getFrameBuf(8), MsgMetaNodes)
	f, err := c.call(ctx, req)
	putFrameBuf(req)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaNodesResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaNodesResp(payload)
}

// MetaVote asks a peer for its ballot in a leader election round.
func (c *Client) MetaVote(ctx context.Context, req *MetaVoteReq) (*MetaVoteResp, error) {
	body := AppendMetaVote(getFrameBuf(64), req)
	f, err := c.call(ctx, body)
	putFrameBuf(body)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaVoteResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaVoteResp(payload)
}

// MetaAppendEntries ships a log batch (or an empty heartbeat) to a
// follower. Duplicate delivery is safe: the follower skips entries at
// or below its log tail, so the shared retry machinery applies.
func (c *Client) MetaAppendEntries(ctx context.Context, req *MetaAppendReq) (*MetaAppendResp, error) {
	body := AppendMetaAppend(getFrameBuf(256), req)
	f, err := c.call(ctx, body)
	putFrameBuf(body)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaAppendResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaAppendResp(payload)
}

// MetaSnapInstall transfers a full serialized namespace state to a
// diverged follower, which installs it atomically.
func (c *Client) MetaSnapInstall(ctx context.Context, req *MetaSnapInstallReq) (*MetaAppendResp, error) {
	body := AppendMetaSnapInstall(getFrameBuf(1024), req)
	f, err := c.call(ctx, body)
	putFrameBuf(body)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaAppendResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaAppendResp(payload)
}

// MetaStatus asks a metadata node for its replication status.
func (c *Client) MetaStatus(ctx context.Context) (*MetaStatusInfo, error) {
	body := AppendMetaStatus(getFrameBuf(8))
	f, err := c.call(ctx, body)
	putFrameBuf(body)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaStatusResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaStatusResp(payload)
}

// MetaNodeSet registers a node or changes its membership state and
// returns the updated table.
func (c *Client) MetaNodeSet(ctx context.Context, addr string, state byte) ([]MetaNode, error) {
	req := AppendMetaNodeReq(getFrameBuf(64), &MetaNode{Addr: addr, State: state})
	f, err := c.call(ctx, req)
	putFrameBuf(req)
	if err != nil {
		return nil, err
	}
	defer ReleaseFrame(f.body)
	payload, err := parseResp(f, MsgMetaNodesResp)
	if err != nil {
		return nil, err
	}
	return DecodeMetaNodesResp(payload)
}
