package meta

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"parafile/internal/codec"
	"parafile/internal/falls"
	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// startTestService runs a Store + Service on a loopback port and
// returns a connected client.
func startTestService(t *testing.T) (*rpc.Client, *Store) {
	t.Helper()
	st, err := OpenStore(t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := NewService(ServiceConfig{Store: st, Metrics: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	cl := rpc.NewClient(rpc.ClientConfig{Addr: ln.Addr().String()})
	t.Cleanup(func() { cl.Close() })
	return cl, st
}

func TestServiceNamespaceOverTCP(t *testing.T) {
	cl, st := startTestService(t)
	ctx := context.Background()

	// Create with no registered data nodes is refused.
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "early"}); err == nil {
		t.Fatal("create with no active nodes succeeded")
	}
	if _, err := cl.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MetaNodeSet(ctx, "n2:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}

	f, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "data", Replication: 2})
	if err != nil {
		t.Fatalf("MetaCreate: %v", err)
	}
	if f.Epoch != 1 || f.StripeBytes != DefaultStripeBytes || len(f.Nodes) != 2 || len(f.Assign) != 2 {
		t.Fatalf("created record = %+v", f)
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "data"}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "wide", Replication: 3}); err == nil {
		t.Fatal("replication wider than membership succeeded")
	}

	got, err := cl.MetaOpen(ctx, "data")
	if err != nil || got.Name != "data" || got.Epoch != 1 {
		t.Fatalf("MetaOpen: %+v, %v", got, err)
	}
	if _, err := cl.MetaOpen(ctx, "ghost"); !errors.Is(err, rpc.ErrUnknownFile) {
		t.Fatalf("open of absent name: got %v, want ErrUnknownFile", err)
	}

	if ext, err := cl.MetaExtend(ctx, "data", 4096); err != nil || ext.Length != 4096 {
		t.Fatalf("MetaExtend: %+v, %v", ext, err)
	}

	files, err := cl.MetaList(ctx)
	if err != nil || len(files) != 1 || files[0].Length != 4096 {
		t.Fatalf("MetaList: %+v, %v", files, err)
	}
	nodes, err := cl.MetaNodes(ctx)
	if err != nil || len(nodes) != 2 {
		t.Fatalf("MetaNodes: %+v, %v", nodes, err)
	}

	if err := cl.MetaRemove(ctx, "data"); err != nil {
		t.Fatalf("MetaRemove: %v", err)
	}
	if files, err := cl.MetaList(ctx); err != nil || len(files) != 0 {
		t.Fatalf("MetaList after remove: %+v, %v", files, err)
	}
	_ = st
}

func TestServiceCommitCASOverTCP(t *testing.T) {
	cl, _ := startTestService(t)
	ctx := context.Background()
	if _, err := cl.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	next, err := cl.MetaCommit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 1, StoreName: "f@2", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if err != nil || next.Epoch != 2 || next.StoreName != "f@2" {
		t.Fatalf("MetaCommit: %+v, %v", next, err)
	}
	// The losing driver of a racing rebalance gets the typed stale
	// error over the wire.
	_, err = cl.MetaCommit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 1, StoreName: "f@2b", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if !errors.Is(err, rpc.ErrStalePlacement) {
		t.Fatalf("losing CAS: got %v, want ErrStalePlacement", err)
	}
}

// parkAppends returns a store fault plan that holds the second log
// append touching file (the first is its create) for d — a mutation
// parked in its durability wait, with the store lock held.
func parkAppends(file string, d time.Duration) *fault.Injector {
	return fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Node: fault.AnyNode, Op: fault.OpMetaAppend, File: file, Kind: fault.Delay, Delay: d, After: 1, Times: 1},
	}}, nil)
}

// waitFired blocks until the plan's first rule has fired.
func waitFired(t *testing.T, inj *fault.Injector) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); inj.Injected(0) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fault rule never fired")
		}
	}
}

// TestServiceConcurrentRequestsOneConnection: the metadata service runs
// the shared multiplexed connection loop, so requests of one client
// connection do not queue behind each other — a MetaStatus completes
// while a MetaExtend on the same connection is parked in its commit.
func TestServiceConcurrentRequestsOneConnection(t *testing.T) {
	inj := parkAppends("parked", 600*time.Millisecond)
	gc := startFaultyGroupCluster(t, 3, inj)
	leader := gc.waitLeader()
	reg := obs.NewRegistry()
	cl := rpc.NewClient(rpc.ClientConfig{Addr: leader.addr, Metrics: reg})
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "parked"}); err != nil {
		t.Fatal(err)
	}
	extended := make(chan error, 1)
	go func() {
		_, err := cl.MetaExtend(ctx, "parked", 4096)
		extended <- err
	}()
	waitFired(t, inj)
	info, err := cl.MetaStatus(ctx)
	if err != nil {
		t.Fatalf("MetaStatus behind a parked MetaExtend: %v", err)
	}
	select {
	case err := <-extended:
		t.Fatalf("MetaExtend (err %v) finished before MetaStatus: the status was not served concurrently", err)
	default:
	}
	if info.Self != leader.addr {
		t.Fatalf("status from %q, want %q", info.Self, leader.addr)
	}
	if err := <-extended; err != nil {
		t.Fatalf("parked MetaExtend: %v", err)
	}
	if dials := reg.Counter(rpc.MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d connections dialed, want the one shared connection", dials)
	}
}

// TestClientCloseMidTrafficLeaksNothing closes a metadata client and a
// data client while each has a call in flight — a MetaExtend parked in
// its commit, a chunked write slowed on the wire: both calls return,
// and once the daemons stop no goroutine of either side is left.
func TestClientCloseMidTrafficLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()

	inj := parkAppends("f", 300*time.Millisecond)
	st, err := OpenStore(t.TempDir(), StoreConfig{Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{Store: st})
	data := rpc.NewServer(rpc.ServerConfig{})
	var lns [2]net.Listener
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	served := make(chan error, 2)
	go func() { served <- svc.Serve(lns[0]) }()
	go func() { served <- data.Serve(lns[1]) }()

	mdc := rpc.NewClient(rpc.ClientConfig{Addr: lns[0].Addr().String(), MaxRetries: -1})
	if _, err := mdc.MetaNodeSet(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	if _, err := mdc.MetaCreate(ctx, &rpc.MetaCreateReq{Name: "f"}); err != nil {
		t.Fatal(err)
	}
	slow := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		// Past the preface and CreateFile, every frame write crawls.
		{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.Delay, Delay: 20 * time.Millisecond, After: 6},
	}}, nil)
	dc := rpc.NewClient(rpc.ClientConfig{
		Addr: lns[1].Addr().String(), MaxRetries: -1, ChunkSize: 4 << 10, Dialer: slow.Dialer(nil),
	})
	phys := codec.EncodeFile(part.MustFile(0, part.MustPattern(
		part.Element{Name: "s0", Set: falls.Set{falls.MustLeaf(0, 63, 64, 1)}},
	)))
	if err := dc.CreateFile(ctx, &rpc.CreateFileReq{Name: "f", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}

	calls := make(chan error, 2)
	go func() {
		_, err := mdc.MetaExtend(ctx, "f", 4096)
		calls <- err
	}()
	go func() {
		payload := make([]byte, 1<<20)
		calls <- dc.WriteSegments(ctx, &rpc.WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(payload)) - 1, Data: payload})
	}()
	waitFired(t, inj)
	waitFired(t, slow)
	mdc.Close()
	dc.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-calls:
			if err == nil {
				t.Error("a call in flight across Close reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call in flight across Close never returned")
		}
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(sctx); err != nil {
		t.Errorf("metadata service shutdown: %v", err)
	}
	if err := data.Shutdown(sctx); err != nil {
		t.Errorf("data daemon shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	st.Close()
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
