package rpc

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"parafile/internal/codec"
	"parafile/internal/obs"
)

// golden_test.go pins the wire bytes: testdata/wire.golden holds the
// encoding of one fixed value of every message type, plus a frame
// header with span records. A codec change that moves a single byte
// of any message fails here.

var goldenHdr = &frameHdr{sid: 300, trace: 1 << 40, span: 7, spans: []obs.SpanRecord{
	{TraceID: 1 << 40, SpanID: 8, Parent: 7, Name: "write_segments", Node: "ion0", Start: -5, End: 1 << 35, Err: true},
	{TraceID: 1 << 40, SpanID: 9, Parent: 8, Name: "lock_wait", Node: "ion0", Start: 2, End: 3},
}}

var goldenFile = &MetaFile{
	Name: "matrix", StripeBytes: 65536, Replication: 2, Epoch: 3 << 20,
	StoreName: "matrix@3145728", Length: 1 << 33,
	Nodes: []string{"10.0.0.1:7070", "10.0.0.2:7070"}, Assign: []int{1, 0, 300},
}

// goldenBodies holds one fixed body of every message type of the
// table (nil for the bodiless ones).
var goldenBodies = map[byte]codec.Message{
	MsgCreateFile: &CreateFileReq{Name: "matrix", Phys: []byte{1, 2, 3}, Subfiles: []int{0, 2, 300}, Reopen: true, Epoch: 1 << 21},
	MsgSetView:    &SetViewReq{Fingerprint: 0xDEADBEEFCAFE, Proj: []byte{4, 5}},
	MsgWriteSegs:  &WriteSegsReq{File: "matrix", Subfile: 3, Fingerprint: 77, Lo: 128, Hi: 1 << 20, Data: []byte("payload"), Epoch: 9},
	MsgReadSegs:   &ReadSegsReq{File: "matrix", Subfile: 2, Lo: 5, Hi: 300, N: 296, Epoch: 9},
	MsgStat:       &StatReq{File: "m", Subfile: 7},
	MsgClose:      &CloseReq{File: "m", Remove: true},
	MsgPing:       nil,
	MsgHello:      &hello{Ver: MaxProtoVersion, Tenant: "gold"},
	MsgChecksum:   &ChecksumReq{File: "m", Subfile: 1, Off: 4096, N: 65536},
	MsgEpoch:      &EpochReq{File: "m@3", Epoch: 3, Fence: true},

	MsgOK:           nil,
	MsgData:         &dataResp{Data: []byte("bytes")},
	MsgStatResp:     &statResp{Len: 123456789},
	MsgChecksumResp: &checksumResp{Sum: 0xCAFEBABE},
	MsgError:        &RemoteError{Code: ErrCodeNotLeader, Msg: "not the leader", RetryAfter: 1500 * time.Microsecond, Leader: "10.0.0.2:7060"},

	MsgMetaCreate: &MetaCreateReq{Name: "f", StripeBytes: 65536, Replication: 2},
	MsgMetaOpen:   &MetaNameReq{Name: "f"},
	MsgMetaList:   nil,
	MsgMetaRemove: &MetaNameReq{Name: "f"},
	MsgMetaCommit: &MetaCommitReq{Name: "f", OldEpoch: 1, StoreName: "f@2", Nodes: []string{"a:1", "b:2"}, Assign: []int{1, 0}, NewEpoch: 2},
	MsgMetaExtend: &MetaExtendReq{Name: "f", Length: 1 << 33},
	MsgMetaNodes:  nil,
	MsgMetaNode:   &MetaNode{Addr: "a:1", State: NodeDraining},
	MsgMetaVote:   &MetaVoteReq{Term: 3, Candidate: "m1:7060", LastIndex: 10, LastTerm: 2},
	MsgMetaAppend: &MetaAppendReq{Term: 3, Leader: "m1:7060", PrevIndex: 9, PrevTerm: 2, Entries: []ReplEntry{
		{Index: 10, Term: 3, Payload: []byte{1, 2}}, {Index: 11, Term: 3},
	}},
	MsgMetaSnapInstall: &MetaSnapInstallReq{Term: 3, Leader: "m1:7060", LastIndex: 11, LastTerm: 3, State: []byte("pfmeta01")},
	MsgMetaStatus:      nil,

	MsgMetaFileResp: goldenFile,
	MsgMetaListResp: &MetaListResp{Files: []*MetaFile{goldenFile, {
		Name: "b", StripeBytes: 1, Replication: 1, Epoch: 1, StoreName: "b", Nodes: []string{"n:1"}, Assign: []int{0},
	}}},
	MsgMetaNodesResp:  &MetaNodesResp{Nodes: []MetaNode{{Addr: "a:1", State: NodeActive}, {Addr: "b:2", State: NodeRemoved}}},
	MsgMetaVoteResp:   &MetaVoteResp{Term: 4, Granted: true},
	MsgMetaAppendResp: &MetaAppendResp{Term: 4, OK: true, LastIndex: 11},
	MsgMetaStatusResp: &MetaStatusInfo{Term: 4, Role: RoleLeader, Leader: "m1:7060", Self: "m1:7060",
		LastIndex: 11, LastTerm: 4, LeaseMs: 250, Peers: 3},
}

// goldenOrder lists the message types in the golden file's order.
var goldenOrder = []byte{
	MsgCreateFile, MsgSetView, MsgWriteSegs, MsgReadSegs, MsgStat, MsgClose, MsgPing, MsgHello, MsgChecksum, MsgEpoch,
	MsgOK, MsgData, MsgStatResp, MsgChecksumResp, MsgError,
	MsgMetaCreate, MsgMetaOpen, MsgMetaList, MsgMetaRemove, MsgMetaCommit, MsgMetaExtend, MsgMetaNodes, MsgMetaNode,
	MsgMetaVote, MsgMetaAppend, MsgMetaSnapInstall, MsgMetaStatus,
	MsgMetaFileResp, MsgMetaListResp, MsgMetaNodesResp, MsgMetaVoteResp, MsgMetaAppendResp, MsgMetaStatusResp,
}

// goldenMessage is the encoding of type t's golden body.
func goldenMessage(t byte) []byte { return Encode(nil, t, goldenBodies[t]) }

func TestWireGolden(t *testing.T) {
	var b strings.Builder
	for _, typ := range goldenOrder {
		fmt.Fprintf(&b, "%s %x\n", MsgName(typ), goldenMessage(typ))
	}
	fmt.Fprintf(&b, "frame_header %x\n", appendFrameHdr(nil, MaxProtoVersion, goldenHdr))
	checkGolden(t, "testdata/wire.golden", b.String())
	for typ, spec := range msgs {
		if _, ok := goldenBodies[byte(typ)]; spec.name != "" && !ok {
			t.Errorf("message %s has no golden body", spec.name)
		}
	}
	if len(goldenOrder) != len(goldenBodies) {
		t.Errorf("golden order lists %d types, the golden bodies %d", len(goldenOrder), len(goldenBodies))
	}
}

// checkGolden compares got against the checked-in golden file.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("%s line %d:\nwant %s\ngot  %s", path, i+1, w, g)
		}
	}
}
