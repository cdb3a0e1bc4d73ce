package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"parafile/internal/obs"
)

// meta_wire_test.go covers the metadata wire surface: codec
// round-trips and truncation robustness for every meta message, the
// epoch/fence protocol against a live daemon, and the transport's
// placement-refresh connection retirement.

func randMetaFile(rng *rand.Rand) *MetaFile {
	n := 1 + rng.Intn(5)
	nodes := make([]string, n)
	assign := make([]int, 1+rng.Intn(6))
	for i := range nodes {
		nodes[i] = randString(rng, 24)
	}
	for i := range assign {
		assign[i] = rng.Intn(n)
	}
	return &MetaFile{
		Name:        randString(rng, 32),
		StripeBytes: rng.Int63n(1 << 20),
		Replication: 1 + rng.Intn(3),
		Epoch:       rng.Uint64() >> 8,
		Length:      rng.Int63(),
		StoreName:   randString(rng, 32),
		Nodes:       nodes,
		Assign:      assign,
	}
}

func TestMetaFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		f := randMetaFile(rng)
		enc := AppendMetaFile(nil, f)
		got, rest, err := ReadMetaFile(enc)
		if err != nil {
			t.Fatalf("ReadMetaFile: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round-trip mismatch:\nin  %+v\nout %+v", f, got)
		}
		// Every truncation must fail cleanly, never panic or misparse.
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := ReadMetaFile(enc[:cut]); err == nil {
				t.Fatalf("truncation at %d/%d parsed", cut, len(enc))
			}
		}
	}
}

func TestMetaMessageRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		cases := []struct {
			name string
			typ  byte
			enc  []byte
			dec  func(payload []byte) (any, error)
			want any
		}{
			{
				name: "create", typ: MsgMetaCreate,
				want: &MetaCreateReq{Name: randString(rng, 32), StripeBytes: rng.Int63n(1 << 20), Replication: rng.Intn(4)},
				dec:  func(p []byte) (any, error) { return DecodeMetaCreate(p) },
			},
			{
				name: "open", typ: MsgMetaOpen,
				want: randString(rng, 40),
				dec:  func(p []byte) (any, error) { return DecodeMetaName(p) },
			},
			{
				name: "commit", typ: MsgMetaCommit,
				want: &MetaCommitReq{
					Name: randString(rng, 24), OldEpoch: rng.Uint64() >> 8,
					StoreName: randString(rng, 24),
					Nodes:     []string{randString(rng, 16), randString(rng, 16)},
					Assign:    []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)},
				},
				dec: func(p []byte) (any, error) { return DecodeMetaCommit(p) },
			},
			{
				name: "extend", typ: MsgMetaExtend,
				want: &MetaExtendReq{Name: randString(rng, 24), Length: rng.Int63()},
				dec:  func(p []byte) (any, error) { return DecodeMetaExtend(p) },
			},
			{
				name: "node", typ: MsgMetaNode,
				want: &MetaNode{Addr: randString(rng, 24), State: byte(rng.Intn(3))},
				dec: func(p []byte) (any, error) {
					n, err := DecodeMetaNodeReq(p)
					if err != nil {
						return nil, err
					}
					return &MetaNode{Addr: n.Addr, State: n.State}, nil
				},
			},
			{
				name: "epoch", typ: MsgEpoch,
				want: &EpochReq{File: randString(rng, 24), Epoch: 1 + rng.Uint64()>>8, Fence: rng.Intn(2) == 1},
				dec:  func(p []byte) (any, error) { return DecodeEpoch(p) },
			},
		}
		for c := range cases {
			tc := &cases[c]
			switch w := tc.want.(type) {
			case *MetaCreateReq:
				tc.enc = AppendMetaCreate(nil, w)
			case string:
				tc.enc = AppendMetaName(nil, tc.typ, w)
			case *MetaCommitReq:
				tc.enc = AppendMetaCommit(nil, w)
			case *MetaExtendReq:
				tc.enc = AppendMetaExtend(nil, w)
			case *MetaNode:
				tc.enc = AppendMetaNodeReq(nil, w)
			case *EpochReq:
				tc.enc = AppendEpoch(nil, w)
			}
			typ, payload, err := ParseFrame(frameBody(frameHdr{}, tc.enc))
			if err != nil {
				t.Fatalf("%s: ParseFrame: %v", tc.name, err)
			}
			if typ != tc.typ {
				t.Fatalf("%s: frame type %#x, want %#x", tc.name, typ, tc.typ)
			}
			got, err := tc.dec(payload)
			if err != nil {
				t.Fatalf("%s: decode: %v", tc.name, err)
			}
			if !reflect.DeepEqual(tc.want, got) {
				t.Fatalf("%s round-trip mismatch:\nin  %+v\nout %+v", tc.name, tc.want, got)
			}
			for cut := 0; cut < len(payload); cut++ {
				if _, err := tc.dec(payload[:cut]); err == nil {
					t.Fatalf("%s: truncation at %d/%d parsed", tc.name, cut, len(payload))
				}
			}
		}
	}
}

func TestMetaRespRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	files := []*MetaFile{randMetaFile(rng), randMetaFile(rng), randMetaFile(rng)}

	// File resp.
	body := AppendMetaFileResp(nil, files[0])
	typ, payload, err := ParseFrame(frameBody(frameHdr{}, body))
	if err != nil || typ != MsgMetaFileResp {
		t.Fatalf("file resp frame: %#x, %v", typ, err)
	}
	got, err := DecodeMetaFileResp(payload)
	if err != nil || !reflect.DeepEqual(files[0], got) {
		t.Fatalf("file resp round-trip: %+v, %v", got, err)
	}

	// List resp, including empty.
	for _, set := range [][]*MetaFile{files, nil} {
		body = AppendMetaListResp(nil, set)
		typ, payload, err = ParseFrame(frameBody(frameHdr{}, body))
		if err != nil || typ != MsgMetaListResp {
			t.Fatalf("list resp frame: %#x, %v", typ, err)
		}
		gotList, err := DecodeMetaListResp(payload)
		if err != nil || len(gotList) != len(set) {
			t.Fatalf("list resp: %d files, %v", len(gotList), err)
		}
		for i := range set {
			if !reflect.DeepEqual(set[i], gotList[i]) {
				t.Fatalf("list resp entry %d mismatch", i)
			}
		}
	}

	// Nodes resp.
	nodes := []MetaNode{{Addr: "a:1", State: NodeActive}, {Addr: "b:2", State: NodeDraining}}
	body = AppendMetaNodesResp(nil, nodes)
	typ, payload, err = ParseFrame(frameBody(frameHdr{}, body))
	if err != nil || typ != MsgMetaNodesResp {
		t.Fatalf("nodes resp frame: %#x, %v", typ, err)
	}
	gotNodes, err := DecodeMetaNodesResp(payload)
	if err != nil || !reflect.DeepEqual(nodes, gotNodes) {
		t.Fatalf("nodes resp round-trip: %+v, %v", gotNodes, err)
	}
}

// startTestDaemon runs an in-memory daemon on loopback.
func startTestDaemon(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	srv := NewServer(ServerConfig{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestServerEpochFence drives the daemon-side epoch protocol: an
// epoch-stamped store rejects mismatched epochs, a fence rejects
// epoch-stamped writes while reads keep flowing, and the post-commit
// ratchet+unfence turns old-epoch requests stale.
func TestServerEpochFence(t *testing.T) {
	addr := startTestDaemon(t, obs.NewRegistry())
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()

	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}, Epoch: 1}); err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	write := func(epoch uint64) error {
		return c.WriteSegments(ctx, &WriteSegsReq{
			File: "f", Subfile: 0, Lo: 0, Hi: 3, Data: []byte("abcd"), Epoch: epoch,
		})
	}
	read := func(epoch uint64) error {
		buf := make([]byte, 4)
		return c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 3, N: 4, Epoch: epoch}, buf)
	}

	if err := write(1); err != nil {
		t.Fatalf("write at matching epoch: %v", err)
	}
	if err := write(2); !errors.Is(err, ErrStalePlacement) {
		t.Fatalf("write at wrong epoch: %v, want ErrStalePlacement", err)
	}
	// Unstamped (legacy / rebalance-driver) requests always pass.
	if err := write(0); err != nil {
		t.Fatalf("unstamped write: %v", err)
	}

	// Fence at the current epoch: stamped writes bounce, reads flow.
	if err := c.SetEpoch(ctx, "f", 1, true); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if err := write(1); !errors.Is(err, ErrStalePlacement) {
		t.Fatalf("stamped write under fence: %v, want ErrStalePlacement", err)
	}
	if err := read(1); err != nil {
		t.Fatalf("read under fence: %v", err)
	}
	if err := write(0); err != nil {
		t.Fatalf("unstamped write under fence: %v", err)
	}

	// Commit: ratchet to epoch 2 and unfence — old-epoch reads and
	// writes are both stale now, new-epoch writes flow.
	if err := c.SetEpoch(ctx, "f", 2, false); err != nil {
		t.Fatalf("ratchet: %v", err)
	}
	if err := read(1); !errors.Is(err, ErrStalePlacement) {
		t.Fatalf("old-epoch read after flip: %v, want ErrStalePlacement", err)
	}
	if err := write(1); !errors.Is(err, ErrStalePlacement) {
		t.Fatalf("old-epoch write after flip: %v, want ErrStalePlacement", err)
	}
	if err := write(2); err != nil {
		t.Fatalf("new-epoch write after flip: %v", err)
	}

	// Zero epoch on the wire is invalid (it would un-stamp the store).
	if err := c.SetEpoch(ctx, "f", 0, false); err == nil {
		t.Fatal("zero-epoch SetEpoch accepted")
	}
}
