package rpc

// wire_meta.go carries the metadata-service half of the wire: the
// placement-epoch admin request the data daemons handle (MsgEpoch) and
// the namespace/placement messages parafilemd answers (MsgMeta*). The
// messages reuse the storage protocol's framing, coder and error
// responses, so one client stack speaks to both daemons.

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

// Wire codes the record: the body of MsgMetaFileResp, and of the
// metadata store's put record.
func (f *MetaFile) Wire(c *codec.Coder) {
	c.String(&f.Name)
	c.Varint(&f.StripeBytes)
	c.Int(&f.Replication)
	c.Uvarint(&f.Epoch)
	c.String(&f.StoreName)
	c.Varint(&f.Length)
	placementWire(c, &f.Nodes, &f.Assign)
}

// placementWire codes a placement's node list and assign permutation.
func placementWire(c *codec.Coder, nodes *[]string, assign *[]int) {
	codec.List(c, nodes)
	for i := range *nodes {
		c.String(&(*nodes)[i])
	}
	codec.List(c, assign)
	for i := range *assign {
		c.Int(&(*assign)[i])
	}
}

// EpochReq ratchets the placement epoch of every store of File on the
// receiving data daemon and raises or clears the write fence. File is
// the store base name; replica stores ("file~r<r>") follow along.
type EpochReq struct {
	File  string
	Epoch uint64
	Fence bool
}

// Wire codes the request.
func (r *EpochReq) Wire(c *codec.Coder) {
	c.String(&r.File)
	c.Uvarint(&r.Epoch)
	c.Bool(&r.Fence)
}

// MetaCreateReq creates a namespace entry; the service computes the
// initial placement over its active nodes.
type MetaCreateReq struct {
	Name        string
	StripeBytes int64
	Replication int
}

// Wire codes the request.
func (r *MetaCreateReq) Wire(c *codec.Coder) {
	c.String(&r.Name)
	c.Varint(&r.StripeBytes)
	c.Int(&r.Replication)
}

// MetaNameReq names one file: the body of MsgMetaOpen and
// MsgMetaRemove.
type MetaNameReq struct {
	Name string
}

// Wire codes the request.
func (r *MetaNameReq) Wire(c *codec.Coder) {
	c.String(&r.Name)
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

// Wire codes the request.
func (r *MetaCommitReq) Wire(c *codec.Coder) {
	c.String(&r.Name)
	c.Uvarint(&r.OldEpoch)
	c.String(&r.StoreName)
	placementWire(c, &r.Nodes, &r.Assign)
	c.Uvarint(&r.NewEpoch)
}

// MetaExtendReq ratchets a file's logical length after a write.
type MetaExtendReq struct {
	Name   string
	Length int64
}

// Wire codes the request.
func (r *MetaExtendReq) Wire(c *codec.Coder) {
	c.String(&r.Name)
	c.Varint(&r.Length)
}

// MetaNode is one membership entry of the cluster node table, and the
// body of a MsgMetaNode registration or state change.
type MetaNode struct {
	Addr  string
	State byte
}

// Wire codes the entry.
func (n *MetaNode) Wire(c *codec.Coder) {
	c.String(&n.Addr)
	c.Byte(&n.State)
}

// MetaListResp answers MsgMetaList with every namespace entry.
type MetaListResp struct {
	Files []*MetaFile
}

// Wire codes the response.
func (r *MetaListResp) Wire(c *codec.Coder) {
	codec.List(c, &r.Files)
	for i := range r.Files {
		if c.Decoding() {
			r.Files[i] = new(MetaFile)
		}
		r.Files[i].Wire(c)
	}
}

// MetaNodesResp answers MsgMetaNodes and MsgMetaNode with the
// membership table.
type MetaNodesResp struct {
	Nodes []MetaNode
}

// Wire codes the response.
func (r *MetaNodesResp) Wire(c *codec.Coder) {
	codec.List(c, &r.Nodes)
	for i := range r.Nodes {
		r.Nodes[i].Wire(c)
	}
}
