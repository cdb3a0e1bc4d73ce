package rpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"parafile/internal/obs"
)

// meta_wire_test.go covers the metadata wire surface: codec
// round-trips and truncation robustness for every meta message, the
// epoch/fence protocol against a live daemon, and the transport's
// placement-refresh connection retirement.

func TestMetaFileRoundTrip(t *testing.T) { checkRoundTrips(t, MsgMetaFileResp) }

func TestMetaMessageRoundTrips(t *testing.T) {
	checkRoundTrips(t, MsgMetaCreate, MsgMetaOpen, MsgMetaRemove, MsgMetaCommit, MsgMetaExtend,
		MsgMetaNode, MsgEpoch, MsgMetaList, MsgMetaNodes)
}

func TestMetaRespRoundTrips(t *testing.T) {
	checkRoundTrips(t, MsgMetaFileResp, MsgMetaListResp, MsgMetaNodesResp)
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
