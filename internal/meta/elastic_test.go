package meta

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// elastic_test.go is the end-to-end elasticity proof: a replicated
// file written over three daemons survives an add-node and then the
// drain of an original node — both executed online as paper
// redistributions — with reads succeeding at every point, the final
// bytes identical to a never-rebalanced control, and a write raced
// against the epoch flip landing whole or not at all.

// testCluster is a metadata service plus a set of data daemons, all
// in-process on loopback.
type testCluster struct {
	t       *testing.T
	reg     *obs.Registry
	tracer  *obs.Tracer
	mdAddr  string
	daemons map[string]func() error
}

func startElasticCluster(t *testing.T, dataNodes int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		reg:     obs.NewRegistry(),
		tracer:  obs.NewTracer("test-driver", 64),
		daemons: make(map[string]func() error),
	}
	st, err := OpenStore(t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := NewService(ServiceConfig{Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	tc.mdAddr = ln.Addr().String()
	for i := 0; i < dataNodes; i++ {
		tc.startDaemon()
	}
	return tc
}

// startDaemon runs one in-memory parafiled on loopback and returns its
// address (it is NOT registered at the metadata service — that is the
// add-node path under test).
func (tc *testCluster) startDaemon() string {
	tc.t.Helper()
	return tc.startDaemonWith(rpc.ServerConfig{Metrics: tc.reg})
}

// startDaemonWith is startDaemon with the daemon's configuration.
func (tc *testCluster) startDaemonWith(cfg rpc.ServerConfig) string {
	tc.t.Helper()
	srv := rpc.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-done
	}
	tc.daemons[addr] = stop
	tc.t.Cleanup(func() {
		if s, ok := tc.daemons[addr]; ok {
			delete(tc.daemons, addr)
			s()
		}
	})
	return addr
}

func (tc *testCluster) addrs() []string {
	out := make([]string, 0, len(tc.daemons))
	for a := range tc.daemons {
		out = append(out, a)
	}
	return out
}

func (tc *testCluster) dial() *FS {
	return Dial(tc.mdAddr, Options{Metrics: tc.reg, Tracer: tc.tracer})
}

func patternAt(off int64) byte { return byte(off*197 + 13) }

func patternBuf(off, n int64) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = patternAt(off + int64(i))
	}
	return buf
}

// TestElasticAddDrain is the full lifecycle: write at R=2 over 3
// daemons, add a 4th, drain an original, reading concurrently
// throughout, and compare the final bytes to a never-rebalanced
// control file.
func TestElasticAddDrain(t *testing.T) {
	tc := startElasticCluster(t, 3)
	ctx := context.Background()
	cl := tc.dial()
	defer cl.Close()

	original := make([]string, 0, 3)
	for addr := range tc.daemons {
		original = append(original, addr)
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}

	const size = 3 * 3 * 4096 // three whole stripe periods over 3 subfiles
	f, err := cl.Create(ctx, "data", 4096, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	want := patternBuf(0, size)
	if err := f.WriteAt(ctx, want, 0); err != nil {
		t.Fatalf("initial write: %v", err)
	}
	// The control is the pristine image — the rebalanced file must
	// stay byte-identical to it at every membership change.
	control := append([]byte(nil), want...)

	readCheck := func(when string) {
		r, err := cl.Open(ctx, "data")
		if err != nil {
			t.Fatalf("%s: open: %v", when, err)
		}
		defer r.Close()
		got := make([]byte, len(control))
		if err := r.ReadAt(ctx, got, 0); err != nil {
			t.Fatalf("%s: read: %v", when, err)
		}
		if !bytes.Equal(got, control) {
			t.Fatalf("%s: read-back diverged from the never-rebalanced control", when)
		}
	}
	readCheck("before any membership change")

	// Concurrent reader hammering the file across both rebalances: every
	// read must succeed (old epoch until the commit, refetch after).
	stopReads := make(chan struct{})
	var readerWG sync.WaitGroup
	readerErr := make(chan error, 1)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rf, err := cl.Open(ctx, "data")
		if err != nil {
			readerErr <- err
			return
		}
		defer rf.Close()
		buf := make([]byte, size)
		for i := 0; ; i++ {
			select {
			case <-stopReads:
				return
			default:
			}
			if err := rf.ReadAt(ctx, buf, 0); err != nil {
				readerErr <- fmt.Errorf("concurrent read %d: %w", i, err)
				return
			}
			if !bytes.Equal(buf, control) {
				readerErr <- fmt.Errorf("concurrent read %d: bytes diverged", i)
				return
			}
		}
	}()
	checkReader := func(when string) {
		select {
		case err := <-readerErr:
			t.Fatalf("%s: %v", when, err)
		default:
		}
	}

	// Grow: 4th daemon joins, every file rebalances onto it.
	added := tc.startDaemon()
	results, err := cl.AddNode(ctx, added)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if len(results) != 1 || results[0].Err != nil || !results[0].Result.Moved {
		t.Fatalf("AddNode results = %+v, want one moved file", results)
	}
	grow := results[0].Result
	if grow.BytesMoved == 0 {
		t.Fatal("add-node rebalance reports zero bytes moved — did not run through the redistribution path")
	}
	if grow.FromEpoch != 1 || grow.ToEpoch != 2 {
		t.Fatalf("add-node epochs = %d -> %d, want 1 -> 2", grow.FromEpoch, grow.ToEpoch)
	}
	if got := len(grow.ToNodes); got != 4 {
		t.Fatalf("placement after add-node spans %d nodes, want 4", got)
	}
	checkReader("during add-node")
	readCheck("after add-node")

	// The old client handle (bound at epoch 1) transparently refetches.
	got := make([]byte, size)
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("stale-handle read after add-node: %v", err)
	}
	if !bytes.Equal(got, control) {
		t.Fatal("stale-handle read diverged after add-node")
	}
	if f.Placement().Epoch != 2 {
		t.Fatalf("stale handle still at epoch %d after refetch", f.Placement().Epoch)
	}

	// Shrink: drain one of the ORIGINAL three — its bytes must move off
	// before the placement commits.
	drained := original[0]
	results, err = cl.DrainNode(ctx, drained)
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if len(results) != 1 || results[0].Err != nil || !results[0].Result.Moved || results[0].Result.ToEpoch != 3 {
		t.Fatalf("DrainNode results = %+v, want one move to epoch 3", results)
	}
	for _, n := range results[0].Result.ToNodes {
		if n == drained {
			t.Fatalf("drained node %s still in the new placement", drained)
		}
	}
	checkReader("during drain-node")
	readCheck("after drain-node")

	close(stopReads)
	readerWG.Wait()
	checkReader("at reader shutdown")

	// Now empty, the drained node can be decommissioned — and only now.
	if err := cl.Decommission(ctx, drained); err != nil {
		t.Fatalf("Decommission: %v", err)
	}

	// Writes through the rebalanced placement still verify end-to-end.
	patch := patternBuf(size, 4096)
	if err := f.WriteAt(ctx, patch, size); err != nil {
		t.Fatalf("post-rebalance write: %v", err)
	}
	control = append(control, patch...)
	readCheck("after post-rebalance write")

	// The driver's rebalances are visible in the obs registry and as
	// traced ops — the proof they ran through the instrumented path.
	if n := counterValue(t, tc.reg, "parafile_rebalance_total"); n != 2 {
		t.Fatalf("parafile_rebalance_total = %d, want 2", n)
	}
	if n := counterValue(t, tc.reg, "parafile_rebalance_bytes_moved_total"); n == 0 {
		t.Fatal("parafile_rebalance_bytes_moved_total = 0")
	}
	if tree := tc.tracer.FindOp("rebalance"); tree == nil {
		t.Fatal("no 'rebalance' op in the tracer — the driver span never ran")
	}
	if tree := tc.tracer.FindOp("redistribute"); tree == nil {
		t.Fatal("no 'redistribute' op in the tracer — the move bypassed the redistribution machinery")
	}
}

// TestElasticWriteRaceNeverTorn races writers against the epoch flip:
// each write must land whole in exactly one epoch's store — the fence
// rejects old-epoch writes mid-rebalance with ErrStalePlacement, the
// client refetches and re-issues whole.
func TestElasticWriteRaceNeverTorn(t *testing.T) {
	tc := startElasticCluster(t, 3)
	ctx := context.Background()
	cl := tc.dial()
	defer cl.Close()
	for addr := range tc.daemons {
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}
	const size = 3 * 3 * 1024
	f, err := cl.Create(ctx, "raced", 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(ctx, patternBuf(0, size), 0); err != nil {
		t.Fatal(err)
	}

	// Writer goroutine: full-image writes in a tight loop while the
	// membership changes under it. Every attempt writes the SAME bytes,
	// so any torn write (half old placement, half new) would corrupt
	// the read-back.
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		img := patternBuf(0, size)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.WriteAt(ctx, img, 0); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	added := tc.startDaemon()
	if _, err := cl.AddNode(ctx, added); err != nil {
		t.Fatalf("AddNode under write load: %v", err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErr:
		// The retry loop inside WriteAt must absorb every stale verdict;
		// a surfaced ErrStalePlacement means transparent retry failed.
		t.Fatalf("raced writer surfaced an error: %v", err)
	default:
	}

	r, err := cl.Open(ctx, "raced")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, size)
	if err := r.ReadAt(ctx, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patternBuf(0, size)) {
		t.Fatal("raced write tore across the epoch flip")
	}
	if r.Placement().Epoch != 2 {
		t.Fatalf("file at epoch %d after the rebalance, want 2", r.Placement().Epoch)
	}
	// The flip was observed by somebody: either the racing writer hit
	// the fence (stale retries > 0) or its writes all landed before/
	// after — both are legal; torn is not, and that was checked above.
	t.Logf("stale retries absorbed: %d", counterValue(t, tc.reg, "parafile_meta_stale_retries_total"))
}

// counterValue reads one counter from the registry (get-or-create, so
// an untouched counter reads 0).
// TestReadUnderFenceFlows: a ReadAt issued while a rebalance holds the
// store fenced is served at the old epoch straight away — the right
// bytes, not one stale retry. (A write-class grow ahead of every read
// used to bounce off the fence and park the read in retryStale until
// the commit.)
func TestReadUnderFenceFlows(t *testing.T) {
	tc := startElasticCluster(t, 3)
	ctx := context.Background()
	cl := tc.dial()
	defer cl.Close()
	for addr := range tc.daemons {
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}
	const size = 2 * 3 * 4096
	f, err := cl.Create(ctx, "fenced", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := patternBuf(0, size)
	if err := f.WriteAt(ctx, want, 0); err != nil {
		t.Fatal(err)
	}
	mf := f.Placement()
	tr := cl.transport(mf.Nodes)
	if err := tr.SetEpoch(ctx, mf.StoreName, mf.Epoch, true); err != nil {
		t.Fatalf("fence: %v", err)
	}
	defer tr.SetEpoch(ctx, mf.StoreName, mf.Epoch, false)
	const staleRetries = "parafile_meta_stale_retries_total"
	before := counterValue(t, tc.reg, staleRetries)
	got := make([]byte, size)
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read under fence: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read under fence returned the wrong bytes")
	}
	if after := counterValue(t, tc.reg, staleRetries); after != before {
		t.Fatalf("read under fence took %d stale retries, want 0", after-before)
	}
}

func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	return reg.Counter(name).Value()
}

// TestRebalanceGCSweepsOldStores: once a rebalance commits and the old
// epoch is unfenced, the superseded `name@epoch` stores (and their
// replica siblings) are deleted from the daemons — the counted GC
// sweep — while reads keep working against the new epoch's stores.
func TestRebalanceGCSweepsOldStores(t *testing.T) {
	tc := startElasticCluster(t, 3)
	ctx := context.Background()
	cl := tc.dial()
	defer cl.Close()
	for addr := range tc.daemons {
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}

	const size = 3 * 3 * 4096
	f, err := cl.Create(ctx, "data", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := patternBuf(0, size)
	if err := f.WriteAt(ctx, want, 0); err != nil {
		t.Fatal(err)
	}
	oldStore := f.Placement().StoreName
	oldNodes := append([]string(nil), f.Placement().Nodes...)

	added := tc.startDaemon()
	if _, err := cl.AddNode(ctx, added); err != nil {
		t.Fatalf("AddNode: %v", err)
	}

	if n := counterValue(t, tc.reg, "parafile_meta_gc_total"); n != 1 {
		t.Fatalf("parafile_meta_gc_total = %d, want 1 swept store", n)
	}

	// The old epoch's stores — base and replica — answer unknown-file
	// on every node that held them.
	for _, addr := range oldNodes {
		c := rpc.NewClient(rpc.ClientConfig{Addr: addr, MaxRetries: -1})
		for _, store := range []string{oldStore, clusterfile.ReplicaName(oldStore, 1)} {
			for sub := int64(0); sub < 3; sub++ {
				if _, err := c.Stat(ctx, store, sub); !errors.Is(err, rpc.ErrUnknownFile) {
					t.Errorf("node %s store %q subfile %d: %v, want unknown file (swept)", addr, store, sub, err)
				}
			}
		}
		c.Close()
	}

	// A fresh open reads the new epoch's stores — nothing the sweep
	// removed was still load-bearing.
	r, err := cl.Open(ctx, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, size)
	if err := r.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("read after gc: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes diverged after the gc sweep")
	}

	// The pre-rebalance handle (bound to the swept store) refetches on
	// unknown-file and keeps working.
	if err := f.ReadAt(ctx, got, 0); err != nil {
		t.Fatalf("stale-handle read after gc: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale-handle bytes diverged after the gc sweep")
	}
}
