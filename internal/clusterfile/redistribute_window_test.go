package clusterfile_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// redistribute_window_test.go checks the windowed redistribution
// against the library's reference decomposition over seeded random
// partition pairs — every destination index receives exactly its
// source index, once — and its all-or-nothing and failover behaviour
// under injected source-read failures.

// randPattern draws one partition from the families the paper's model
// covers: 1-D block, cyclic(1), block-cyclic, 2-D row / column / square
// blocks, and a 2-D cyclic×cyclic array (nested FALLS).
func randPattern(rng *rand.Rand) (*part.Pattern, string) {
	pick := func(xs ...int64) int64 { return xs[rng.Intn(len(xs))] }
	for {
		var p *part.Pattern
		var err error
		var desc string
		switch rng.Intn(7) {
		case 0:
			total, n := pick(24, 48, 60, 96), int(pick(2, 3, 4))
			p, err = part.Block1D(total, n)
			desc = fmt.Sprintf("block(%d/%d)", total, n)
		case 1:
			total, n := pick(24, 48, 60), int(pick(2, 3, 4))
			p, err = part.Cyclic1D(total, n, 1)
			desc = fmt.Sprintf("cyclic(%d/%d)", total, n)
		case 2:
			total, n, b := pick(48, 72, 96), int(pick(2, 3, 4)), pick(2, 3, 4, 6)
			p, err = part.Cyclic1D(total, n, b)
			desc = fmt.Sprintf("cyclic-%d(%d/%d)", b, total, n)
		case 3:
			r, c, n := pick(8, 12), pick(6, 8), pick(2, 4)
			p, err = part.RowBlocks(r, c, n)
			desc = fmt.Sprintf("rows(%dx%d/%d)", r, c, n)
		case 4:
			r, c, n := pick(6, 8), pick(8, 12), pick(2, 4)
			p, err = part.ColBlocks(r, c, n)
			desc = fmt.Sprintf("cols(%dx%d/%d)", r, c, n)
		case 5:
			r, c := pick(8, 12), pick(8, 12)
			p, err = part.SquareBlocks(r, c, 2, 2)
			desc = fmt.Sprintf("square(%dx%d)", r, c)
		case 6:
			r, c, e := pick(8, 12), pick(8, 12), pick(1, 2)
			br, bc := pick(1, 2), pick(1, 2)
			p, err = part.NDArray(part.ArraySpec{
				Dims: []int64{r, c}, ElemSize: e,
				Dists: []part.DimDist{
					{Kind: part.Cyclic, Procs: 2, Block: br},
					{Kind: part.Cyclic, Procs: 2, Block: bc},
				},
			})
			desc = fmt.Sprintf("nested(%dx%dx%d cyc%d,cyc%d)", r, c, e, br, bc)
		}
		if err == nil {
			return p, desc
		}
	}
}

// windowCase is one random redistribution and its reference result.
type windowCase struct {
	desc     string
	src, dst *part.File
	length   int64
	srcData  []byte   // what the source holds from its displacement on
	want     [][]byte // reference destination subfiles
	wantLen  []int64  // window lengths the per-transfer path would grow to
}

func randWindowCase(t *testing.T, rng *rand.Rand) *windowCase {
	t.Helper()
	sp, sdesc := randPattern(rng)
	dp, ddesc := randPattern(rng)
	var srcDisp, dstDisp int64
	if rng.Intn(4) == 0 {
		disps := []int64{0, 5, 16}
		srcDisp, dstDisp = disps[rng.Intn(3)], disps[rng.Intn(3)]
	}
	wc := &windowCase{src: part.MustFile(srcDisp, sp), dst: part.MustFile(dstDisp, dp)}
	plan, err := redist.CompilePlan(wc.src, wc.dst, redist.CompileOptions{})
	if err != nil {
		t.Fatalf("%s -> %s: %v", sdesc, ddesc, err)
	}
	// Never a whole number of plan periods: the last one is cut.
	wc.length = int64(rng.Intn(3))*plan.Period + 1 + rng.Int63n(plan.Period-1)
	// The source holds written bytes from its displacement on; in half
	// the cases that stops short of what is moved (a sparse tail).
	srcSpan := plan.Base - srcDisp + wc.length
	written := srcSpan
	if rng.Intn(2) == 0 {
		written = 1 + rng.Int63n(srcSpan)
	}
	wc.srcData = make([]byte, written)
	rng.Read(wc.srcData)
	abs := make([]byte, plan.Base+wc.length)
	copy(abs[srcDisp:], wc.srcData)
	wc.want = redist.SplitFile(wc.dst, abs[dstDisp:])
	wc.wantLen = make([]int64, dp.Len())
	for i := range plan.Transfers {
		tr := &plan.Transfers[i]
		if _, dstHi, n := tr.Windows(plan.Period, wc.length); n > 0 && dstHi+1 > wc.wantLen[tr.DstElem] {
			wc.wantLen[tr.DstElem] = dstHi + 1
		}
	}
	wc.desc = fmt.Sprintf("%s@%d -> %s@%d, %d B (%d written)", sdesc, srcDisp, ddesc, dstDisp, wc.length, written)
	return wc
}

// store creates the source file under name and writes the case's data
// through a whole-file view.
func (wc *windowCase) store(t *testing.T, c *clusterfile.Cluster, name string) *clusterfile.File {
	t.Helper()
	f, err := c.CreateFile(name, wc.src, nil)
	if err != nil {
		t.Fatalf("%s: %v", wc.desc, err)
	}
	whole, err := part.Whole(wc.src.Pattern.Size())
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.SetView(0, part.MustFile(wc.src.Displacement, whole), 0)
	if err != nil {
		t.Fatalf("%s: %v", wc.desc, err)
	}
	op, err := v.StartWrite(clusterfile.ToBufferCache, 0, int64(len(wc.srcData))-1, wc.srcData)
	if err != nil {
		t.Fatalf("%s: %v", wc.desc, err)
	}
	c.RunAll()
	if op.Err != nil {
		t.Fatalf("%s: storing the source: %v", wc.desc, op.Err)
	}
	return f
}

// check compares every replica of every destination subfile with the
// reference: bytes, and the length the per-transfer path grew it to.
func (wc *windowCase) check(t *testing.T, nf *clusterfile.File) {
	t.Helper()
	ctx := context.Background()
	for e := range wc.want {
		got, err := nf.ReadSubfile(e)
		if err != nil {
			t.Fatalf("%s: subfile %d: %v", wc.desc, e, err)
		}
		if !bytes.Equal(got, wc.want[e]) {
			t.Fatalf("%s: destination subfile %d differs from redist.SplitFile of the reference\n got %v\nwant %v",
				wc.desc, e, got, wc.want[e])
		}
		for r := 0; r < nf.Replication; r++ {
			n, err := nf.ReplicaLen(ctx, r, e)
			if err != nil {
				t.Fatal(err)
			}
			if n != wc.wantLen[e] {
				t.Fatalf("%s: replica %d of subfile %d has Len %d, want %d", wc.desc, r, e, n, wc.wantLen[e])
			}
		}
	}
	rep, err := nf.Scrub(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("%s: destination replicas diverge: %+v", wc.desc, rep.Mismatches)
	}
}

func windowConfig(repl int, tr clusterfile.Transport, reg *obs.Registry) clusterfile.Config {
	cfg := clusterfile.DefaultConfig()
	cfg.Replication = repl
	cfg.Transport = tr
	cfg.Metrics = reg
	return cfg
}

// redistributeCase runs one case on a fresh cluster over tr. The pool
// is seeded with dirty buffers first: nothing of them may surface in a
// destination window.
func redistributeCase(t *testing.T, wc *windowCase, repl int, tr clusterfile.Transport, tag string) {
	t.Helper()
	c, err := clusterfile.New(windowConfig(repl, tr, nil))
	if err != nil {
		t.Fatal(err)
	}
	f := wc.store(t, c, tag+"-src")
	clusterfile.DirtyMsgBufPool(8, 4096)
	nf, op, err := c.StartRedistribute(f, tag+"-dst", wc.dst, nil, wc.length)
	if err != nil {
		t.Fatalf("%s: %v", wc.desc, err)
	}
	c.RunAll()
	if op.Err != nil || op.Degraded != nil || !op.Done() {
		t.Fatalf("%s: err %v, degraded %v", wc.desc, op.Err, op.Degraded)
	}
	wc.check(t, nf)
}

// TestRedistributeWindowsRandomLocal: seeded random partition pairs,
// cut periods, sparse source tails, R ∈ {1,2}, in-process stores.
func TestRedistributeWindowsRandomLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 120; i++ {
		wc := randWindowCase(t, rng)
		redistributeCase(t, wc, 1+i%2, clusterfile.NewLocalTransport(nil), fmt.Sprintf("w%d", i))
	}
}

// startWindowDaemon runs one in-memory daemon on loopback.
func startWindowDaemon(t *testing.T) string {
	t.Helper()
	srv := rpc.NewServer(rpc.ServerConfig{})
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

// TestRedistributeWindowsRandomRPC: the same property over loopback
// daemons, with a chunk size small enough that window reads and writes
// stream.
func TestRedistributeWindowsRandomRPC(t *testing.T) {
	addrs := []string{startWindowDaemon(t), startWindowDaemon(t)}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 24; i++ {
		wc := randWindowCase(t, rng)
		tr, err := rpc.NewTransport(addrs, rpc.Options{Client: rpc.ClientConfig{ChunkSize: 64}})
		if err != nil {
			t.Fatal(err)
		}
		redistributeCase(t, wc, 1+i%2, tr, fmt.Sprintf("w%d", i))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRedistributeDirtyPoolLeadingGap: a source displaced past the
// destination leaves the head of every destination window unwritten by
// any transfer; it must read as zeroes even when the image comes out of
// the pool dirty.
func TestRedistributeDirtyPoolLeadingGap(t *testing.T) {
	sp, _ := part.Block1D(64, 4)
	dp, _ := part.Cyclic1D(64, 4, 4)
	data := bytes.Repeat([]byte{0xA5}, 128)
	abs := append(make([]byte, 16), data...)
	wc := &windowCase{
		desc: "block@16 -> cyclic-4@0",
		src:  part.MustFile(16, sp), dst: part.MustFile(0, dp),
		length: 128, srcData: data,
		want:    redist.SplitFile(part.MustFile(0, dp), abs),
		wantLen: []int64{36, 36, 36, 36},
	}
	reg := obs.NewRegistry()
	c, err := clusterfile.New(windowConfig(2, clusterfile.NewLocalTransport(nil), reg))
	if err != nil {
		t.Fatal(err)
	}
	f := wc.store(t, c, "gap-src")
	hitsBefore := reg.Counter(clusterfile.MetricMsgBufHits).Value()
	clusterfile.DirtyMsgBufPool(32, 64)
	nf, op, err := c.StartRedistribute(f, "gap-dst", wc.dst, nil, wc.length)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if op.Err != nil {
		t.Fatal(op.Err)
	}
	if reg.Counter(clusterfile.MetricMsgBufHits).Value() == hitsBefore {
		t.Fatal("no image came out of the seeded pool: the test proved nothing")
	}
	wc.check(t, nf)
}

// abortSetup stores a 32×32 column-block matrix at replication repl
// behind a spy and returns what a row-block repartition needs.
func abortSetup(t *testing.T, repl int) (*clusterfile.Cluster, *clusterfile.File, *spyTransport, *obs.Registry, *part.File, []byte) {
	t.Helper()
	const n = 32
	reg := obs.NewRegistry()
	spy := newSpy(clusterfile.NewLocalTransport(nil))
	c, err := clusterfile.New(windowConfig(repl, spy, reg))
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := part.ColBlocks(n, n, 4)
	rows, _ := part.RowBlocks(n, n, 4)
	img := make([]byte, n*n)
	for i := range img {
		img[i] = byte(i*29 + 3)
	}
	wc := &windowCase{desc: "abort", src: part.MustFile(0, cols), srcData: img}
	return c, wc.store(t, c, "old"), spy, reg, part.MustFile(0, rows), img
}

var errInjectedRead = errors.New("injected source read failure")

// TestRedistributeAbortsAllOrNothing: the read of the k-th source
// subfile fails on its last replica. No destination subfile is
// touched, the destination nodes that had transfers staged report
// ErrRedistAborted, and every pooled image went back.
func TestRedistributeAbortsAllOrNothing(t *testing.T) {
	for _, repl := range []int{1, 2} {
		for _, k := range []int{0, 1, 3} {
			c, f, spy, reg, rows, img := abortSetup(t, repl)
			spy.fail = func(name string, sub int, method string) error {
				if method == "ReadAt" && sub == k && (name == "old" || name == "old~r1") {
					return errInjectedRead
				}
				return nil
			}
			nf, op, err := c.StartRedistribute(f, "new", rows, nil, int64(len(img)))
			if err != nil {
				t.Fatal(err)
			}
			c.RunAll()
			var pe *clusterfile.PartialError
			if !errors.As(op.Err, &pe) || !errors.Is(op.Err, errInjectedRead) {
				t.Fatalf("R=%d k=%d: err = %v, want a PartialError wrapping the injected failure", repl, k, op.Err)
			}
			spy.fail = nil
			for e := 0; e < 4; e++ {
				for r := 0; r < repl; r++ {
					if n, err := nf.ReplicaLen(context.Background(), r, e); err != nil || n != 0 {
						t.Errorf("R=%d k=%d: replica %d of destination subfile %d has Len %d (%v), want 0", repl, k, r, e, n, err)
					}
				}
			}
			if got := spy.calls["WriteAt"]; got != 0 {
				t.Errorf("R=%d k=%d: %d destination writes after an abort", repl, k, got)
			}
			// Source replicas k..k+R-1 failed; with k > 0 every other node
			// already had transfers of source 0 on the way.
			failed := map[int]bool{}
			for r := 0; r < repl; r++ {
				failed[(k+r)%4] = true
			}
			for node := 0; node < 4; node++ {
				o := pe.Outcome(node)
				switch {
				case failed[node]:
					if o == nil || o.State != clusterfile.OutcomeFailed {
						t.Errorf("R=%d k=%d: node %d outcome %+v, want failed", repl, k, node, o)
					}
				case k > 0:
					if o == nil || o.State != clusterfile.OutcomeCancelled || !errors.Is(o.Err, clusterfile.ErrRedistAborted) {
						t.Errorf("R=%d k=%d: node %d outcome %+v, want cancelled with ErrRedistAborted", repl, k, node, o)
					}
				}
			}
			gets := reg.Counter(clusterfile.MetricMsgBufHits).Value() + reg.Counter(clusterfile.MetricMsgBufMisses).Value()
			if returns := reg.Counter(clusterfile.MetricMsgBufReturns).Value(); gets != returns {
				t.Errorf("R=%d k=%d: %d buffers taken, %d returned", repl, k, gets, returns)
			}
		}
	}
}

// TestRedistributeToleratesSourceReplicaFailure: one source replica
// fails its window read; the sibling serves it, the redistribution
// commits with the right bytes and reports the failure as Degraded.
func TestRedistributeToleratesSourceReplicaFailure(t *testing.T) {
	c, f, spy, reg, rows, img := abortSetup(t, 2)
	spy.fail = func(name string, sub int, method string) error {
		if method == "ReadAt" && sub == 1 && name == "old" {
			return errInjectedRead
		}
		return nil
	}
	nf, op, err := c.StartRedistribute(f, "new", rows, nil, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if op.Err != nil {
		t.Fatalf("one failed source replica aborted the redistribution: %v", op.Err)
	}
	if op.Degraded == nil || !errors.Is(op.Degraded, errInjectedRead) {
		t.Fatalf("Degraded = %v, want the injected failure", op.Degraded)
	}
	if failed := op.Degraded.Nodes(clusterfile.OutcomeFailed); len(failed) != 1 || failed[0] != 1 {
		t.Errorf("degraded nodes %v, want [1]", failed)
	}
	if got := reg.Counter(clusterfile.MetricReplicaFailovers).Value(); got != 1 {
		t.Errorf("%d failovers, want 1 (one per source window, not per transfer)", got)
	}
	spy.fail = nil
	want := redist.SplitFile(rows, img)
	for e := range want {
		if !bytes.Equal(nf.Subfile(e), want[e]) {
			t.Fatalf("subfile %d differs after a failover read", e)
		}
	}
	gets := reg.Counter(clusterfile.MetricMsgBufHits).Value() + reg.Counter(clusterfile.MetricMsgBufMisses).Value()
	if returns := reg.Counter(clusterfile.MetricMsgBufReturns).Value(); gets != returns {
		t.Errorf("%d buffers taken, %d returned", gets, returns)
	}
}

// TestRedistributeCancelled: cancellation before the commit point —
// while the source windows are being read, or once the op has started
// and its transfers are in flight — aborts like a failure does:
// nothing written, every node cancelled, every image returned.
func TestRedistributeCancelled(t *testing.T) {
	for _, when := range []string{"mid-read", "in-flight"} {
		c, f, spy, reg, rows, img := abortSetup(t, 2)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if when == "mid-read" {
			spy.fail = func(name string, sub int, method string) error {
				if method == "ReadAt" && sub == 1 {
					cancel() // this read sees the cancellation
				}
				return nil
			}
		}
		nf, op, err := c.StartRedistributeCtx(ctx, f, "new", rows, nil, int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		if when == "in-flight" {
			op.Cancel()
		}
		c.RunAll()
		var pe *clusterfile.PartialError
		if !op.Done() || !errors.As(op.Err, &pe) {
			t.Fatalf("%s: done %v, err %v, want a PartialError", when, op.Done(), op.Err)
		}
		if got := pe.Nodes(clusterfile.OutcomeCancelled); len(got) != 4 {
			t.Fatalf("%s: cancelled nodes %v, want all four (%v)", when, got, op.Err)
		}
		if o := pe.Outcome(1); when == "mid-read" && !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s: source node 1 outcome %+v, want context.Canceled", when, o)
		}
		if got := spy.calls["WriteAt"]; got != 0 {
			t.Errorf("%s: %d destination writes after the cancellation", when, got)
		}
		for e := 0; e < 4; e++ {
			if n, err := nf.ReplicaLen(context.Background(), 0, e); err != nil || n != 0 {
				t.Errorf("%s: destination subfile %d has Len %d (%v), want 0", when, e, n, err)
			}
		}
		gets := reg.Counter(clusterfile.MetricMsgBufHits).Value() + reg.Counter(clusterfile.MetricMsgBufMisses).Value()
		if returns := reg.Counter(clusterfile.MetricMsgBufReturns).Value(); gets != returns {
			t.Errorf("%s: %d buffers taken, %d returned", when, gets, returns)
		}
	}
}
