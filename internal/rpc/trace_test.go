package rpc_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"parafile/internal/bench"
	"parafile/internal/clusterfile"
	"parafile/internal/codec"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// trace_test.go is the acceptance suite of the distributed-tracing
// PR: the loopback workload against traced daemons must produce
// stitched cross-node span trees for write, read and redistribute;
// with tracing off (or against an old daemon) the wire must carry no
// tracing messages at all; and a node dying mid-operation must still
// yield a complete tree with the dead node's RPC span marked failed.

// startTracedDaemon runs one in-process daemon with tracing on and
// returns its address plus an idempotent stop function (also wired to
// t.Cleanup, so tests only call it when they kill a node early).
func startTracedDaemon(t *testing.T, cfg rpc.ServerConfig) (string, func()) {
	t.Helper()
	srv := rpc.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// nodesIn collects the distinct node labels appearing in a tree.
func nodesIn(tree *obs.TraceTree) map[string]bool {
	nodes := map[string]bool{}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		nodes[n.Node] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	if tree.Root != nil {
		walk(tree.Root)
	}
	return nodes
}

// spanNamed returns the first span in the tree whose name contains
// the substring, or nil.
func spanNamed(tree *obs.TraceTree, sub string) *obs.TraceNode {
	var found *obs.TraceNode
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		if found == nil && strings.Contains(n.Name, sub) {
			found = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if tree.Root != nil {
		walk(tree.Root)
	}
	return found
}

// runTracedWorkload drives the standard workload against three traced
// daemons and returns the client tracer's retained trees.
func runTracedWorkload(t *testing.T, client rpc.ClientConfig) []*obs.TraceTree {
	t.Helper()
	var addrs []string
	for _, node := range []string{"ion0", "ion1", "ion2"} {
		addr, _ := startTracedDaemon(t, rpc.ServerConfig{Trace: true, Node: node})
		addrs = append(addrs, addr)
	}
	client.Trace = true
	tr, err := rpc.NewTransport(addrs, rpc.Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tracer := obs.NewTracer("client", 32)
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	cfg.Tracer = tracer
	runWorkload(t, 64, cfg)
	return tracer.Recent()
}

func checkStitchedTrees(t *testing.T, trees []*obs.TraceTree) {
	t.Helper()
	counts := map[string]int{}
	for _, tree := range trees {
		counts[tree.Op]++
		if tree.Err {
			t.Errorf("trace %016x (%s) marked failed on a clean run", tree.TraceID, tree.Op)
		}
		if tree.TraceID == 0 || tree.Root == nil || tree.DurNs <= 0 {
			t.Fatalf("malformed tree: %+v", tree)
		}
		if len(tree.Shares) == 0 {
			t.Fatalf("trace %016x has no node shares", tree.TraceID)
		}
		var pct float64
		for _, s := range tree.Shares {
			pct += s.Pct
		}
		if pct < 99.9 || pct > 100.1 {
			t.Fatalf("trace %016x shares sum to %.2f%%", tree.TraceID, pct)
		}
	}
	// 4 compute-node writes, 4 view read-backs, 1 redistribution.
	if counts["write"] != 4 || counts["read"] != 4 || counts["redistribute"] != 1 {
		t.Fatalf("op trees = %v, want 4 writes, 4 reads, 1 redistribute", counts)
	}
	// Every write must be genuinely cross-node: client spans plus at
	// least one daemon's server spans stitched under the RPC children.
	for _, tree := range trees {
		if tree.Op != "write" && tree.Op != "redistribute" {
			continue
		}
		nodes := nodesIn(tree)
		if !nodes["client"] {
			t.Fatalf("trace %016x (%s) has no client spans: %v", tree.TraceID, tree.Op, nodes)
		}
		server := 0
		for n := range nodes {
			if strings.HasPrefix(n, "ion") {
				server++
			}
		}
		if server == 0 {
			t.Fatalf("trace %016x (%s) stitched no server spans:\n%s",
				tree.TraceID, tree.Op, tree.Format())
		}
		if spanNamed(tree, "rpc.") == nil {
			t.Fatalf("trace %016x (%s) has no rpc client span", tree.TraceID, tree.Op)
		}
		if spanNamed(tree, "server.") == nil {
			t.Fatalf("trace %016x (%s) has no server span", tree.TraceID, tree.Op)
		}
	}
}

// TestTracedWorkloadStitching: every op fits one frame, so server
// spans come back in the reply frame's header.
func TestTracedWorkloadStitching(t *testing.T) {
	checkStitchedTrees(t, runTracedWorkload(t, rpc.ClientConfig{}))
}

// TestTracedStreamedWorkloadStitching: a chunk so small that every
// segment op of more than 16 bytes travels as several pieces. Each
// piece's server spans ride its own reply frame, so a multi-piece op's
// rpc span holds one server span per piece, with no drain round trip.
func TestTracedStreamedWorkloadStitching(t *testing.T) {
	trees := runTracedWorkload(t, rpc.ClientConfig{ChunkSize: 16})
	checkStitchedTrees(t, trees)
	most := 0
	for _, tree := range trees {
		var walk func(n *obs.TraceNode)
		walk = func(n *obs.TraceNode) {
			if strings.HasPrefix(n.Name, "rpc.write_segments") {
				served := 0
				for _, c := range n.Children {
					if c.Name == "server.write_segments" {
						served++
					}
				}
				most = max(most, served)
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		if tree.Root != nil {
			walk(tree.Root)
		}
	}
	if most < 2 {
		t.Fatalf("no write op stitched more than %d server span(s): pieces lost their spans", most)
	}
}

// TestTraceOffNoWireTracing: tracing is decided by each side's own
// switch. With ClientConfig.Trace off the frame headers carry no trace
// context — a tracing daemon opens no span (it would for any nonzero
// header) and returns no records. With
// ServerConfig.Trace off a tracing client's IDs are ignored: the
// workload completes and its trees hold client spans only.
func TestTraceOffNoWireTracing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		client, daemon bool
	}{
		{"client off", false, true},
		{"daemon off", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srvTracer := obs.NewTracer("ion0", 32)
			addr, _ := startTracedDaemon(t, rpc.ServerConfig{Trace: tc.daemon, Node: "ion0", Tracer: srvTracer, Metrics: reg})
			tr, err := rpc.NewTransport([]string{addr}, rpc.Options{Client: rpc.ClientConfig{Trace: tc.client, ChunkSize: 256}})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := clusterfile.DefaultConfig()
			cfg.Transport = tr
			// The cluster always has a tracer: ops get local trees, and
			// with a side switched off none of it may cross the wire.
			tracer := obs.NewTracer("client", 32)
			cfg.Tracer = tracer
			runWorkload(t, 64, cfg)
			if n := len(srvTracer.Recent()) + len(srvTracer.InFlight()); n != 0 {
				t.Errorf("daemon recorded %d traced requests", n)
			}
			trees := tracer.Recent()
			if len(trees) == 0 {
				t.Fatal("no local trees")
			}
			for _, tree := range trees {
				for n := range nodesIn(tree) {
					if n != "client" {
						t.Fatalf("foreign span in %016x: %q", tree.TraceID, n)
					}
				}
			}
		})
	}
}

// TestPartialFailureTraceTree kills one of three daemons between open
// and write: the collective write fails partially, the PartialError
// carries the trace ID, and the stitched tree is complete — the live
// nodes' server spans present, the dead node's RPC span marked
// error=true — with no goroutines leaked by the broken streams.
func TestPartialFailureTraceTree(t *testing.T) {
	before := runtime.NumGoroutine()

	var addrs []string
	var stops []func()
	for _, node := range []string{"ion0", "ion1", "ion2"} {
		addr, stop := startTracedDaemon(t, rpc.ServerConfig{Trace: true, Node: node})
		addrs = append(addrs, addr)
		stops = append(stops, stop)
	}
	tr, err := rpc.NewTransport(addrs, rpc.Options{Client: rpc.ClientConfig{
		Trace:       true,
		MaxRetries:  1,
		DialTimeout: time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer("client", 32)
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	cfg.Tracer = tracer
	w, err := bench.NewWorkloadWithConfig("c", 64, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The file is open on all three daemons; now one dies.
	stops[1]()

	_, werr := w.WriteAll(clusterfile.ToBufferCache)
	if werr == nil {
		t.Fatal("write succeeded although a daemon was down")
	}
	var pe *clusterfile.PartialError
	if !errors.As(werr, &pe) {
		t.Fatalf("write error is not a PartialError: %v", werr)
	}
	if pe.TraceID == 0 {
		t.Fatal("PartialError carries no trace ID")
	}
	if !strings.Contains(pe.Error(), "trace "+obs.FormatTraceID(pe.TraceID)) {
		t.Fatalf("error text does not name the trace: %v", pe)
	}
	tree := tracer.Find(pe.TraceID)
	if tree == nil {
		t.Fatalf("trace %016x from the error is not retained", pe.TraceID)
	}
	if !tree.Err {
		t.Fatalf("failed op's tree not marked failed:\n%s", tree.Format())
	}
	// The tree is still complete: the live daemons' server spans are
	// stitched in, and the dead node's RPC attempt is present and
	// marked failed.
	liveServer := 0
	for n := range nodesIn(tree) {
		if strings.HasPrefix(n, "ion") {
			liveServer++
		}
	}
	if liveServer == 0 {
		t.Fatalf("no surviving node's spans in the partial tree:\n%s", tree.Format())
	}
	failedRPC := 0
	var verify func(n *obs.TraceNode)
	verify = func(n *obs.TraceNode) {
		if n.Err && strings.HasPrefix(n.Name, "rpc.") {
			failedRPC++
		}
		for _, c := range n.Children {
			verify(c)
		}
	}
	verify(tree.Root)
	if failedRPC == 0 {
		t.Fatalf("no failed rpc span in the partial tree:\n%s", tree.Format())
	}
	if err := w.File.Close(); err == nil {
		// Close may or may not fail against the dead node; either way
		// the transport must still shut down cleanly below.
		_ = err
	}
	tr.Close()
	stops[0]()
	stops[2]()

	// Goroutine-leak check: broken mux streams and drains must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPoolDiscardsExposition is the satellite-2 golden test: both
// buffer pools surface under the one shared series name with a
// lowercase kind label, each bound exactly once, and the legacy
// clusterfile counter name stays for dashboards that pin it.
func TestPoolDiscardsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	rpc.NewServer(rpc.ServerConfig{Metrics: reg})
	cfg := clusterfile.DefaultConfig()
	cfg.Metrics = reg
	if _, err := clusterfile.New(cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	obs.WriteProm(&sb, reg)
	expo := sb.String()
	// Match at line starts so a series' own TYPE header doesn't count.
	for _, series := range []string{
		rpc.MetricPoolDiscards + `{kind="frame"} `,
		rpc.MetricPoolDiscards + `{kind="msgbuf"} `,
		"parafile_clusterfile_msgbuf_discards_total ",
	} {
		if n := strings.Count(expo, "\n"+series); n != 1 {
			t.Errorf("series %sappears %d times in the exposition, want exactly 1:\n%s", series, n, expo)
		}
	}
	if strings.Contains(expo, "parafile_rpc_frame_pool_discards") {
		t.Error("retired series name still exposed")
	}
	if strings.Contains(expo, `kind="Frame"`) || strings.Contains(expo, `kind="Msgbuf"`) {
		t.Error("kind labels must be lowercase")
	}
}

// BenchmarkStatTraced measures the per-request cost of trace context
// in the frame header, server spans and their return on the reply,
// against the identical untraced request on a loopback daemon — the number that justifies tracing-by-default on the
// daemons (the client still opts in per deployment).
func BenchmarkStatTraced(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			srv := rpc.NewServer(rpc.ServerConfig{Trace: true, Node: "ion0"})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			c := rpc.NewClient(rpc.ClientConfig{Addr: ln.Addr().String(), Trace: mode == "on"})
			defer c.Close()
			ctx := context.Background()
			phys := codec.EncodeFile(part.MustFile(0, part.MustPattern(
				part.Element{Name: "s0", Set: falls.Set{falls.MustLeaf(0, 63, 64, 1)}},
			)))
			if err := c.CreateFile(ctx, &rpc.CreateFileReq{Name: "bench", Phys: phys, Subfiles: []int{0}}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opCtx := ctx
				var sp *obs.Span
				if mode == "on" {
					sp = obs.StartTrace("stat", "client")
					opCtx = obs.ContextWithSpan(ctx, sp)
				}
				if _, err := c.Stat(opCtx, "bench", 0); err != nil {
					b.Fatal(err)
				}
				sp.End()
			}
		})
	}
}
