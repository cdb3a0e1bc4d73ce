package rpc_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"parafile/internal/bench"
	"parafile/internal/clusterfile"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/qos"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// transport_test.go proves the seam: the identical workload driven
// through the in-process transport and through loopback-TCP parafiled
// daemons must produce byte-identical subfiles, view reads, and
// redistribution output. The simulation still supplies the virtual
// time; only where the bytes rest differs.

// startDaemon runs one in-process daemon and returns its address.
func startDaemon(t *testing.T, cfg rpc.ServerConfig) string {
	t.Helper()
	srv := rpc.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// workloadResult is everything the workload externalizes: the physical
// decomposition after the write, the per-node view reads, and the
// physical decomposition after an on-the-fly redistribution.
type workloadResult struct {
	subfiles    [][]byte
	reads       [][]byte
	redistSubs  [][]byte
	groundTruth []byte
}

// runWorkload drives write -> verify -> view read-back -> redistribute
// on a 4+4 cluster with the given transport configuration.
func runWorkload(t *testing.T, n int64, cfg clusterfile.Config) *workloadResult {
	t.Helper()
	w, err := bench.NewWorkloadWithConfig("c", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := w.WriteAll(clusterfile.ToBufferCache)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.Err != nil || !op.Done() {
			t.Fatalf("node %d write: %v", i, op.Err)
		}
	}
	res := &workloadResult{groundTruth: w.Img}
	for i := 0; i < w.File.Phys.Pattern.Len(); i++ {
		b, err := w.File.ReadSubfile(i)
		if err != nil {
			t.Fatalf("subfile %d: %v", i, err)
		}
		res.subfiles = append(res.subfiles, b)
	}

	per := n * n / 4
	for i, v := range w.Views {
		out := make([]byte, per)
		op, err := v.StartRead(0, per-1, out)
		if err != nil {
			t.Fatal(err)
		}
		w.Cluster.RunAll()
		if op.Err != nil {
			t.Fatal(op.Err)
		}
		if !bytes.Equal(out, w.ViewBuf(i)) {
			t.Fatalf("node %d read-back differs from what it wrote", i)
		}
		res.reads = append(res.reads, out)
	}

	rowPat, err := bench.LayoutPattern("r", n)
	if err != nil {
		t.Fatal(err)
	}
	nf, rop, err := w.Cluster.StartRedistribute(w.File, "matrix.v2", part.MustFile(0, rowPat), nil, n*n)
	if err != nil {
		t.Fatal(err)
	}
	w.Cluster.RunAll()
	if rop.Err != nil || !rop.Done() {
		t.Fatalf("redistribute: %v", rop.Err)
	}
	for i := 0; i < nf.Phys.Pattern.Len(); i++ {
		b, err := nf.ReadSubfile(i)
		if err != nil {
			t.Fatalf("redistributed subfile %d: %v", i, err)
		}
		res.redistSubs = append(res.redistSubs, b)
	}
	if err := nf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.File.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTransportEquivalence is the acceptance test of the PR: identical
// workload, in-process vs two loopback daemons, byte-for-byte equal
// at every observation point.
func TestTransportEquivalence(t *testing.T) {
	const n = 64
	local := runWorkload(t, n, clusterfile.DefaultConfig())

	reg := obs.NewRegistry()
	addrs := []string{
		startDaemon(t, rpc.ServerConfig{}),
		startDaemon(t, rpc.ServerConfig{}),
	}
	tr, err := rpc.NewTransport(addrs, rpc.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	remote := runWorkload(t, n, cfg)

	if !bytes.Equal(local.groundTruth, remote.groundTruth) {
		t.Fatal("workloads generated different images (seed drift)")
	}
	if len(local.subfiles) != len(remote.subfiles) {
		t.Fatalf("subfile counts differ: %d vs %d", len(local.subfiles), len(remote.subfiles))
	}
	for i := range local.subfiles {
		if !bytes.Equal(local.subfiles[i], remote.subfiles[i]) {
			t.Errorf("subfile %d differs between in-process and TCP transports", i)
		}
	}
	for i := range local.reads {
		if !bytes.Equal(local.reads[i], remote.reads[i]) {
			t.Errorf("view read %d differs between transports", i)
		}
	}
	for i := range local.redistSubs {
		if !bytes.Equal(local.redistSubs[i], remote.redistSubs[i]) {
			t.Errorf("redistributed subfile %d differs between transports", i)
		}
	}

	// The remote run must actually have traveled the wire.
	scatters := reg.Counter(rpc.MetricClientRequests + `{type="write_segments"}`).Value()
	gathers := reg.Counter(rpc.MetricClientRequests + `{type="read_segments"}`).Value()
	if scatters == 0 || gathers == 0 {
		t.Fatalf("no wire traffic recorded (writes=%d reads=%d) — remote run fell back to local?",
			scatters, gathers)
	}
}

// TestStreamedTransportEquivalence re-runs the acceptance workload
// with the segment operations cut into pieces (chunks far smaller than
// the payloads): write, view read-back and redistribution must stay
// byte-identical to the in-process transport, and the daemons must
// have served more pieces than the client issued ops.
func TestStreamedTransportEquivalence(t *testing.T) {
	const n = 64
	local := runWorkload(t, n, clusterfile.DefaultConfig())

	reg, sreg := obs.NewRegistry(), obs.NewRegistry()
	addrs := []string{
		startDaemon(t, rpc.ServerConfig{Metrics: sreg}),
		startDaemon(t, rpc.ServerConfig{Metrics: sreg}),
	}
	tr, err := rpc.NewTransport(addrs, rpc.Options{
		Client:  rpc.ClientConfig{ChunkSize: 16},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	remote := runWorkload(t, n, cfg)

	for i := range local.subfiles {
		if !bytes.Equal(local.subfiles[i], remote.subfiles[i]) {
			t.Errorf("subfile %d differs between in-process and pieced TCP", i)
		}
	}
	for i := range local.reads {
		if !bytes.Equal(local.reads[i], remote.reads[i]) {
			t.Errorf("view read %d differs between transports", i)
		}
	}
	for i := range local.redistSubs {
		if !bytes.Equal(local.redistSubs[i], remote.redistSubs[i]) {
			t.Errorf("redistributed subfile %d differs between transports", i)
		}
	}

	for _, typ := range []string{"write_segments", "read_segments"} {
		ops := reg.Counter(rpc.MetricClientRequests + `{type="` + typ + `"}`).Value()
		pieces := sreg.Counter(rpc.MetricServerRequests + `{type="` + typ + `"}`).Value()
		if ops == 0 || pieces <= ops {
			t.Fatalf("%s: %d pieces served for %d ops — the payloads were not cut", typ, pieces, ops)
		}
	}
}

// TestStreamedSplitFileIdentity writes a matrix through column-block
// views into row-block subfiles over loopback daemons with a 4 KiB
// chunk, at replication 1 and 2. Every (view, subfile) delivery is a
// fragmented 9604-byte projection window, so it travels as three
// pieces whose cuts fall inside projection segments. Every replica
// tier of every subfile must equal redist.SplitFile's decomposition,
// and the views must read their bytes back.
func TestStreamedSplitFileIdentity(t *testing.T) {
	const n = 392 // 98-byte segments: 4096-byte cuts land mid-segment
	rows, err := part.RowBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := part.ColBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	phys, logical := part.MustFile(0, rows), part.MustFile(0, cols)
	img := make([]byte, n*n)
	rand.New(rand.NewSource(392)).Read(img)
	want := redist.SplitFile(phys, img)
	for _, R := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", R), func(t *testing.T) {
			sreg := obs.NewRegistry()
			addrs := []string{startDaemon(t, rpc.ServerConfig{Metrics: sreg}), startDaemon(t, rpc.ServerConfig{Metrics: sreg})}
			tr, err := rpc.NewTransport(addrs, rpc.Options{Client: rpc.ClientConfig{ChunkSize: 4 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			cfg := clusterfile.DefaultConfig()
			cfg.Transport = tr
			cfg.Replication = R
			c, err := clusterfile.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := c.CreateFile("m", phys, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Each view's bytes, in its own linear order.
			bufs := redist.SplitFile(logical, img)
			views := make([]*clusterfile.View, len(bufs))
			for i := range bufs {
				if views[i], err = f.SetView(i, logical, i); err != nil {
					t.Fatal(err)
				}
				op, err := views[i].StartWrite(clusterfile.ToBufferCache, 0, int64(len(bufs[i]))-1, bufs[i])
				if err != nil {
					t.Fatal(err)
				}
				c.RunAll()
				if op.Err != nil {
					t.Fatalf("view %d write: %v", i, op.Err)
				}
			}
			// Read every replica store straight off the daemon that
			// hosts it.
			for r, row := range f.Placement {
				for e, node := range row {
					dc := rpc.NewClient(rpc.ClientConfig{Addr: addrs[node%len(addrs)]})
					got := make([]byte, len(want[e]))
					err := dc.ReadSegments(context.Background(), &rpc.ReadSegsReq{
						File: clusterfile.ReplicaName("m", r), Subfile: int64(e), Hi: int64(len(got)) - 1, N: int64(len(got)),
					}, got)
					dc.Close()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[e]) {
						t.Fatalf("replica %d of subfile %d differs from SplitFile", r, e)
					}
				}
			}
			for i, v := range views {
				got := make([]byte, len(bufs[i]))
				op, err := v.StartRead(0, int64(len(got))-1, got)
				if err != nil {
					t.Fatal(err)
				}
				c.RunAll()
				if op.Err != nil {
					t.Fatal(op.Err)
				}
				if !bytes.Equal(got, bufs[i]) {
					t.Fatalf("view %d read-back differs", i)
				}
			}
			// 4 views x 4 subfiles x R deliveries of 3 pieces each.
			if w := sreg.Counter(rpc.MetricServerRequests + `{type="write_segments"}`).Value(); w != uint64(48*R) {
				t.Fatalf("%d write pieces, want %d", w, 48*R)
			}
		})
	}
}

// TestTransportDaemonRestartReopen checks the disk-backed daemon
// lifecycle: write through one daemon, stop it (sync + close), start a
// fresh daemon on the same data directory, and reopen the file without
// truncation. The second daemon must see the on-disk sizes and bytes.
func TestTransportDaemonRestartReopen(t *testing.T) {
	dir := t.TempDir()
	const n = 64

	// First daemon: run the write, closing files via the workload.
	addr1 := func() string {
		srv := rpc.NewServer(rpc.ServerConfig{DataDir: dir})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() { <-done })
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return ln.Addr().String()
	}()
	tr1, err := rpc.NewTransport([]string{addr1}, rpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr1
	w, err := bench.NewWorkloadWithConfig("c", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := w.WriteAll(clusterfile.ToBufferCache)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Err != nil {
			t.Fatal(op.Err)
		}
	}
	wantSubs := make([][]byte, w.File.Phys.Pattern.Len())
	for i := range wantSubs {
		if wantSubs[i], err = w.File.ReadSubfile(i); err != nil {
			t.Fatal(err)
		}
	}
	phys := w.File.Phys
	if err := w.File.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second daemon on the same directory; reopen without truncation.
	addr2 := startDaemon(t, rpc.ServerConfig{DataDir: dir})
	tr2, err := rpc.NewTransport([]string{addr2}, rpc.Options{Reopen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	handles, err := tr2.Open(context.Background(), "matrix", phys, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		size, err := h.Len(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(len(wantSubs[i])) {
			t.Fatalf("subfile %d reopened with %d bytes, want %d", i, size, len(wantSubs[i]))
		}
		got := make([]byte, size)
		if err := h.ReadAt(context.Background(), got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantSubs[i]) {
			t.Fatalf("subfile %d content lost across daemon restart", i)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransportSurvivesProjectionLoss simulates a daemon that lost its
// projection table (as a restart would): the client re-registers on
// the unknown-projection error and the operation still succeeds.
func TestTransportSurvivesProjectionLoss(t *testing.T) {
	const n = 64
	reg := obs.NewRegistry()
	addr := startDaemon(t, rpc.ServerConfig{Metrics: reg})
	tr, err := rpc.NewTransport([]string{addr}, rpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	res := runWorkload(t, n, cfg)
	for i, sub := range res.subfiles {
		if len(sub) == 0 {
			t.Fatalf("subfile %d empty", i)
		}
	}
	// The projections were registered once per shape per client, not
	// once per scatter: far fewer SetViews than WriteSegments.
	sets := reg.Counter(rpc.MetricServerRequests + `{type="set_view"}`).Value()
	writes := reg.Counter(rpc.MetricServerRequests + `{type="write_segments"}`).Value()
	if sets == 0 {
		t.Fatal("no projections registered")
	}
	if sets >= writes {
		t.Fatalf("SetView traveled %d times vs %d writes — registration is not amortized", sets, writes)
	}
}

// TestViewReadAdmittedOncePerDeliveryAsRead: against a daemon with
// admission control, a collective view read is admitted exactly once
// per subfile delivery, in the read class — never as a write (the
// grow-first round trip it used to send made every read eligible for
// oldest-write shedding), and a view write once per delivery as a
// write.
func TestViewReadAdmittedOncePerDeliveryAsRead(t *testing.T) {
	const n = 32
	reg := obs.NewRegistry()
	lim := qos.NewLimiter(qos.Config{Metrics: reg})
	tr, err := rpc.NewTransport([]string{startDaemon(t, rpc.ServerConfig{QoS: lim})}, rpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := clusterfile.DefaultConfig()
	cfg.Transport = tr
	w, err := bench.NewWorkloadWithConfig("c", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	admitted := func(op string) uint64 {
		return reg.Counter(qos.MetricAdmitted + `{op="` + op + `"}`).Value()
	}
	// Row-block views over column-block subfiles: every view op is one
	// delivery to each of the 4 subfiles.
	const deliveries = 4
	per := int64(n * n / 4)
	wop, err := w.Views[0].StartWrite(clusterfile.ToBufferCache, 0, per-1, w.ViewBuf(0))
	if err != nil {
		t.Fatal(err)
	}
	w.Cluster.RunAll()
	if wop.Err != nil {
		t.Fatal(wop.Err)
	}
	if got := admitted("write"); got != deliveries {
		t.Fatalf("view write admitted %d write ops, want %d (one per delivery)", got, deliveries)
	}
	out := make([]byte, per)
	rop, err := w.Views[0].StartRead(0, per-1, out)
	if err != nil {
		t.Fatal(err)
	}
	w.Cluster.RunAll()
	if rop.Err != nil {
		t.Fatal(rop.Err)
	}
	if !bytes.Equal(out, w.ViewBuf(0)) {
		t.Fatal("view read-back differs")
	}
	if got := admitted("read"); got != deliveries {
		t.Errorf("view read admitted %d read ops, want %d (one per delivery)", got, deliveries)
	}
	if got := admitted("write"); got != deliveries {
		t.Errorf("view read was admitted %d times in the write class", got-deliveries)
	}
}
