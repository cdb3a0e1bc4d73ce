package rpc

// wire_meta.go carries the metadata-service half of the wire: the
// placement-epoch admin request the data daemons handle (MsgEpoch) and
// the namespace/placement messages parafilemd answers (MsgMeta*). The
// encodings reuse the storage protocol's framing, varint primitives
// and error responses, so one client stack speaks to both daemons.

import (
	"fmt"

	"parafile/internal/codec"
)

// Node membership states carried by MsgMetaNode/MsgMetaNodesResp.
const (
	// NodeActive nodes receive new placements.
	NodeActive byte = 0
	// NodeDraining nodes are excluded from new placements while their
	// files rebalance away; the stores stay readable until then.
	NodeDraining byte = 1
	// NodeRemoved nodes are decommissioned: no file references them.
	NodeRemoved byte = 2
)

// NodeStateName returns the display name of a membership state.
func NodeStateName(s byte) string {
	switch s {
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeRemoved:
		return "removed"
	}
	return fmt.Sprintf("state-%d", s)
}

// MetaFile is the metadata service's record of one file: the flat
// namespace entry plus the versioned placement map (epoch, node list,
// assign permutation) that replaces the implicit static mapping.
type MetaFile struct {
	// Name is the namespace key clients open the file by.
	Name string
	// StripeBytes is the striping unit: subfile s holds bytes
	// [s*W, (s+1)*W) of every len(Assign)*W period.
	StripeBytes int64
	// Replication is the replica count of every subfile.
	Replication int
	// Epoch versions the placement below; it bumps by one at every
	// committed rebalance, and data daemons reject ops whose epoch
	// does not match their stores'.
	Epoch uint64
	// StoreName is the daemon-side store base name of this epoch's
	// generation ("name" initially, "name@<epoch>" after a rebalance),
	// so the old and new generations coexist while data moves.
	StoreName string
	// Length is the logical byte length written so far (ratcheted by
	// MsgMetaExtend); it sizes rebalances.
	Length int64
	// Nodes are the daemon endpoints of this epoch's placement, in
	// I/O-node-index order.
	Nodes []string
	// Assign maps subfile s to its primary node index in Nodes;
	// replica r of subfile s lives on (Assign[s]+r) mod len(Nodes).
	Assign []int
}

// maxMetaEntries bounds decoded list counts against corrupt frames.
const maxMetaEntries = 1 << 16

// AppendMetaFile encodes one MetaFile record (no frame header).
func AppendMetaFile(buf []byte, f *MetaFile) []byte {
	buf = appendString(buf, f.Name)
	buf = codec.AppendVarint(buf, f.StripeBytes)
	buf = codec.AppendUvarint(buf, uint64(f.Replication))
	buf = codec.AppendUvarint(buf, f.Epoch)
	buf = appendString(buf, f.StoreName)
	buf = codec.AppendVarint(buf, f.Length)
	buf = codec.AppendUvarint(buf, uint64(len(f.Nodes)))
	for _, n := range f.Nodes {
		buf = appendString(buf, n)
	}
	buf = codec.AppendUvarint(buf, uint64(len(f.Assign)))
	for _, a := range f.Assign {
		buf = codec.AppendUvarint(buf, uint64(a))
	}
	return buf
}

// ReadMetaFile decodes one MetaFile record, returning the remainder.
func ReadMetaFile(payload []byte) (*MetaFile, []byte, error) {
	f := &MetaFile{}
	var err error
	if f.Name, payload, err = readString(payload); err != nil {
		return nil, nil, err
	}
	if f.StripeBytes, payload, err = readVarint(payload); err != nil {
		return nil, nil, err
	}
	var repl uint64
	if repl, payload, err = readUvarint(payload); err != nil {
		return nil, nil, err
	}
	f.Replication = int(repl)
	if f.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, nil, err
	}
	if f.StoreName, payload, err = readString(payload); err != nil {
		return nil, nil, err
	}
	if f.Length, payload, err = readVarint(payload); err != nil {
		return nil, nil, err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, nil, err
	}
	if n > maxMetaEntries {
		return nil, nil, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, n)
	}
	f.Nodes = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		if s, payload, err = readString(payload); err != nil {
			return nil, nil, err
		}
		f.Nodes = append(f.Nodes, s)
	}
	if n, payload, err = readUvarint(payload); err != nil {
		return nil, nil, err
	}
	if n > maxMetaEntries {
		return nil, nil, fmt.Errorf("%w: implausible assign count %d", ErrCorrupt, n)
	}
	f.Assign = make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		var a uint64
		if a, payload, err = readUvarint(payload); err != nil {
			return nil, nil, err
		}
		f.Assign = append(f.Assign, int(a))
	}
	return f, payload, nil
}

// EpochReq ratchets the placement epoch of every store of File on the
// receiving data daemon and raises or clears the write fence. File is
// the store base name; replica stores ("file~r<r>") follow along.
type EpochReq struct {
	File  string
	Epoch uint64
	Fence bool
}

// AppendEpoch encodes req as a message.
func AppendEpoch(buf []byte, req *EpochReq) []byte {
	buf = beginMsg(buf, MsgEpoch)
	buf = appendString(buf, req.File)
	buf = codec.AppendUvarint(buf, req.Epoch)
	if req.Fence {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeEpoch decodes a MsgEpoch payload.
func DecodeEpoch(payload []byte) (*EpochReq, error) {
	req := &EpochReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: missing fence flag", ErrCorrupt)
	}
	req.Fence = payload[0] != 0
	return req, wantEmpty(payload[1:])
}

// MetaCreateReq creates a namespace entry; the service computes the
// initial placement over its active nodes.
type MetaCreateReq struct {
	Name        string
	StripeBytes int64
	Replication int
}

// AppendMetaCreate encodes req as a message.
func AppendMetaCreate(buf []byte, req *MetaCreateReq) []byte {
	buf = beginMsg(buf, MsgMetaCreate)
	buf = appendString(buf, req.Name)
	buf = codec.AppendVarint(buf, req.StripeBytes)
	return codec.AppendUvarint(buf, uint64(req.Replication))
}

// DecodeMetaCreate decodes a MsgMetaCreate payload.
func DecodeMetaCreate(payload []byte) (*MetaCreateReq, error) {
	req := &MetaCreateReq{}
	var err error
	if req.Name, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.StripeBytes, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	var repl uint64
	if repl, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	req.Replication = int(repl)
	return req, wantEmpty(payload)
}

// AppendMetaName encodes a name-only request (MsgMetaOpen or
// MsgMetaRemove).
func AppendMetaName(buf []byte, msgType byte, name string) []byte {
	buf = beginMsg(buf, msgType)
	return appendString(buf, name)
}

// DecodeMetaName decodes a name-only payload.
func DecodeMetaName(payload []byte) (string, error) {
	name, payload, err := readString(payload)
	if err != nil {
		return "", err
	}
	return name, wantEmpty(payload)
}

// MetaCommitReq is the compare-and-swap placement flip after a
// rebalance: OldEpoch names the epoch the data was copied from; the
// service bumps to OldEpoch+1 with the new placement, or answers
// ErrCodeStalePlacement if the file has moved past OldEpoch.
type MetaCommitReq struct {
	Name      string
	OldEpoch  uint64
	StoreName string
	Nodes     []string
	Assign    []int
	// NewEpoch is the exact epoch the driver stamped into the daemon
	// stores it staged the data on; the service records it verbatim so
	// the namespace and the data plane agree. It must exceed OldEpoch
	// and clear the service's current term floor. Zero lets the
	// service pick OldEpoch+1 raised to the floor.
	NewEpoch uint64
}

// AppendMetaCommit encodes req as a message.
func AppendMetaCommit(buf []byte, req *MetaCommitReq) []byte {
	buf = beginMsg(buf, MsgMetaCommit)
	buf = appendString(buf, req.Name)
	buf = codec.AppendUvarint(buf, req.OldEpoch)
	buf = appendString(buf, req.StoreName)
	buf = codec.AppendUvarint(buf, uint64(len(req.Nodes)))
	for _, n := range req.Nodes {
		buf = appendString(buf, n)
	}
	buf = codec.AppendUvarint(buf, uint64(len(req.Assign)))
	for _, a := range req.Assign {
		buf = codec.AppendUvarint(buf, uint64(a))
	}
	return codec.AppendUvarint(buf, req.NewEpoch)
}

// DecodeMetaCommit decodes a MsgMetaCommit payload.
func DecodeMetaCommit(payload []byte) (*MetaCommitReq, error) {
	req := &MetaCommitReq{}
	var err error
	if req.Name, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.OldEpoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.StoreName, payload, err = readString(payload); err != nil {
		return nil, err
	}
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > maxMetaEntries {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, n)
	}
	req.Nodes = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		if s, payload, err = readString(payload); err != nil {
			return nil, err
		}
		req.Nodes = append(req.Nodes, s)
	}
	if n, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if n > maxMetaEntries {
		return nil, fmt.Errorf("%w: implausible assign count %d", ErrCorrupt, n)
	}
	req.Assign = make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		var a uint64
		if a, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		req.Assign = append(req.Assign, int(a))
	}
	if req.NewEpoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// MetaExtendReq ratchets a file's logical length after a write.
type MetaExtendReq struct {
	Name   string
	Length int64
}

// AppendMetaExtend encodes req as a message.
func AppendMetaExtend(buf []byte, req *MetaExtendReq) []byte {
	buf = beginMsg(buf, MsgMetaExtend)
	buf = appendString(buf, req.Name)
	return codec.AppendVarint(buf, req.Length)
}

// DecodeMetaExtend decodes a MsgMetaExtend payload.
func DecodeMetaExtend(payload []byte) (*MetaExtendReq, error) {
	req := &MetaExtendReq{}
	var err error
	if req.Name, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Length, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// MetaNode is one membership entry of the cluster node table.
type MetaNode struct {
	Addr  string
	State byte
}

// AppendMetaNodeReq encodes a MsgMetaNode registration/state change.
func AppendMetaNodeReq(buf []byte, node *MetaNode) []byte {
	buf = beginMsg(buf, MsgMetaNode)
	buf = appendString(buf, node.Addr)
	return append(buf, node.State)
}

// DecodeMetaNodeReq decodes a MsgMetaNode payload.
func DecodeMetaNodeReq(payload []byte) (*MetaNode, error) {
	node := &MetaNode{}
	var err error
	if node.Addr, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: missing node state", ErrCorrupt)
	}
	node.State = payload[0]
	return node, wantEmpty(payload[1:])
}

// AppendMetaEmpty encodes a bodyless metadata request (MsgMetaList or
// MsgMetaNodes).
func AppendMetaEmpty(buf []byte, msgType byte) []byte {
	return beginMsg(buf, msgType)
}

// AppendMetaFileResp encodes a MsgMetaFileResp.
func AppendMetaFileResp(buf []byte, f *MetaFile) []byte {
	buf = beginMsg(buf, MsgMetaFileResp)
	return AppendMetaFile(buf, f)
}

// DecodeMetaFileResp decodes a MsgMetaFileResp payload.
func DecodeMetaFileResp(payload []byte) (*MetaFile, error) {
	f, payload, err := ReadMetaFile(payload)
	if err != nil {
		return nil, err
	}
	return f, wantEmpty(payload)
}

// AppendMetaListResp encodes a MsgMetaListResp.
func AppendMetaListResp(buf []byte, files []*MetaFile) []byte {
	buf = beginMsg(buf, MsgMetaListResp)
	buf = codec.AppendUvarint(buf, uint64(len(files)))
	for _, f := range files {
		buf = AppendMetaFile(buf, f)
	}
	return buf
}

// DecodeMetaListResp decodes a MsgMetaListResp payload.
func DecodeMetaListResp(payload []byte) ([]*MetaFile, error) {
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > maxMetaEntries {
		return nil, fmt.Errorf("%w: implausible file count %d", ErrCorrupt, n)
	}
	files := make([]*MetaFile, 0, n)
	for i := uint64(0); i < n; i++ {
		var f *MetaFile
		if f, payload, err = ReadMetaFile(payload); err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, wantEmpty(payload)
}

// AppendMetaNodesResp encodes a MsgMetaNodesResp.
func AppendMetaNodesResp(buf []byte, nodes []MetaNode) []byte {
	buf = beginMsg(buf, MsgMetaNodesResp)
	buf = codec.AppendUvarint(buf, uint64(len(nodes)))
	for i := range nodes {
		buf = appendString(buf, nodes[i].Addr)
		buf = append(buf, nodes[i].State)
	}
	return buf
}

// DecodeMetaNodesResp decodes a MsgMetaNodesResp payload.
func DecodeMetaNodesResp(payload []byte) ([]MetaNode, error) {
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > maxMetaEntries {
		return nil, fmt.Errorf("%w: implausible node count %d", ErrCorrupt, n)
	}
	nodes := make([]MetaNode, 0, n)
	for i := uint64(0); i < n; i++ {
		var node MetaNode
		if node.Addr, payload, err = readString(payload); err != nil {
			return nil, err
		}
		if len(payload) < 1 {
			return nil, fmt.Errorf("%w: missing node state", ErrCorrupt)
		}
		node.State = payload[0]
		payload = payload[1:]
		nodes = append(nodes, node)
	}
	return nodes, wantEmpty(payload)
}
