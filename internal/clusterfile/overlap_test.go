package clusterfile_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// overlap_test.go pins the execution model of the collectives: every
// storage call of an operation is in flight at once. A barrier
// transport holds each data call until all the calls of the current
// phase have arrived, so an operation that issued its calls one after
// another would stall at the first call until the deadline.

// overlapDeadline bounds how long a phase waits for its calls.
const overlapDeadline = 5 * time.Second

// barrier releases the data calls of each armed phase together, once
// the phase's count has arrived. Unarmed calls pass straight through.
type barrier struct {
	mu      sync.Mutex
	phases  []int // call counts of the phases still to come
	arrived int
	release chan struct{}
	ctx     context.Context // the deadline shared by all phases
	cancel  context.CancelFunc
}

// arm expects the given phases, in order, within one deadline.
func (b *barrier) arm(phases ...int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.phases, b.arrived, b.release = phases, 0, make(chan struct{})
	b.ctx, b.cancel = context.WithTimeout(context.Background(), overlapDeadline)
}

// disarm lets every later call pass and reports the phases that never
// completed.
func (b *barrier) disarm() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	left := b.phases
	b.phases, b.release = nil, nil
	if b.cancel != nil {
		b.cancel()
	}
	return left
}

func (b *barrier) wait(method string) error {
	b.mu.Lock()
	if len(b.phases) == 0 {
		b.mu.Unlock()
		return nil
	}
	release, ctx := b.release, b.ctx
	if b.arrived++; b.arrived == b.phases[0] {
		close(release)
		b.phases, b.arrived, b.release = b.phases[1:], 0, make(chan struct{})
	}
	want, got := b.phases, b.arrived
	b.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%s waited for overlapping calls: %d arrived of phases %v", method, got, want)
	}
}

// barrierTransport holds every data call of its handles at the barrier.
type barrierTransport struct {
	clusterfile.Transport
	b barrier
}

func (t *barrierTransport) Open(ctx context.Context, name string, phys *part.File, assign []int) ([]clusterfile.SubfileHandle, error) {
	handles, err := t.Transport.Open(ctx, name, phys, assign)
	if err != nil {
		return nil, err
	}
	for i, h := range handles {
		handles[i] = &barrierHandle{SubfileHandle: h, b: &t.b}
	}
	return handles, nil
}

type barrierHandle struct {
	clusterfile.SubfileHandle
	b *barrier
}

func (h *barrierHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	if err := h.b.wait("WriteAt"); err != nil {
		return err
	}
	return h.SubfileHandle.WriteAt(ctx, p, off)
}

func (h *barrierHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	if err := h.b.wait("ReadAt"); err != nil {
		return err
	}
	return h.SubfileHandle.ReadAt(ctx, p, off)
}

func (h *barrierHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	if err := h.b.wait("Scatter"); err != nil {
		return err
	}
	return h.SubfileHandle.Scatter(ctx, p, lo, hi, data)
}

func (h *barrierHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	if err := h.b.wait("Gather"); err != nil {
		return err
	}
	return h.SubfileHandle.Gather(ctx, p, lo, hi, dst)
}

// overlapCluster is a 4+4 cluster at replication R over a barrier
// transport on the given stores, holding an n×n matrix file under
// nSub column blocks, with one row-block view per compute node: every
// view crosses every subfile, so the four ranks write disjoint parts
// of the same subfiles.
func overlapCluster(t *testing.T, R int, stores clusterfile.StorageFactory, n int64, nSub int) (*clusterfile.Cluster, *clusterfile.File, []*clusterfile.View, *barrierTransport) {
	t.Helper()
	bt := &barrierTransport{Transport: clusterfile.NewLocalTransport(stores)}
	cfg := clusterfile.DefaultConfig()
	cfg.Replication = R
	cfg.Transport = bt
	c, err := clusterfile.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := part.ColBlocks(n, n, int64(nSub))
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateFile("shared", part.MustFile(0, cols), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := part.RowBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*clusterfile.View, 4)
	for i := range views {
		if views[i], err = f.SetView(i, part.MustFile(0, rows), i); err != nil {
			t.Fatal(err)
		}
	}
	return c, f, views, bt
}

// writeAllViews starts every view's write of its quarter of img, then
// drives them to completion in one RunAll.
func writeAllViews(t *testing.T, c *clusterfile.Cluster, views []*clusterfile.View, img []byte) {
	t.Helper()
	per := int64(len(img) / len(views))
	ops := make([]*clusterfile.WriteOp, len(views))
	for i, v := range views {
		op, err := v.StartWrite(clusterfile.ToBufferCache, 0, per-1, img[int64(i)*per:int64(i+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = op
	}
	c.RunAll()
	for i, op := range ops {
		if op.Err != nil || !op.Done() {
			t.Fatalf("view %d write: done %v, err %v", i, op.Done(), op.Err)
		}
	}
}

func matrixImage(n int64) []byte {
	img := make([]byte, n*n)
	for i := range img {
		img[i] = byte(i*7 + 3)
	}
	return img
}

// TestCollectiveCallsOverlap: a 4-view write at R=2 has all its
// (view, subfile, replica) scatters in flight at once, a 4-view read
// all its subfile gathers, and a redistribution all its source-window
// reads and then all its (window, replica) commit writes.
func TestCollectiveCallsOverlap(t *testing.T) {
	const n, nSub, R = 64, 4, 2
	c, f, views, bt := overlapCluster(t, R, nil, n, nSub)
	img := matrixImage(n)
	check := func(phase string) {
		t.Helper()
		if left := bt.b.disarm(); len(left) != 0 {
			t.Fatalf("%s: phases %v never had all their calls in flight", phase, left)
		}
	}

	bt.b.arm(len(views) * nSub * R)
	writeAllViews(t, c, views, img)
	check("write")

	per := int64(n * n / len(views))
	outs := make([][]byte, len(views))
	rops := make([]*clusterfile.ReadOp, len(views))
	bt.b.arm(len(views) * nSub)
	for i, v := range views {
		outs[i] = make([]byte, per)
		op, err := v.StartRead(0, per-1, outs[i])
		if err != nil {
			t.Fatal(err)
		}
		rops[i] = op
	}
	c.RunAll()
	check("read")
	for i, op := range rops {
		if op.Err != nil {
			t.Fatalf("view %d read: %v", i, op.Err)
		}
		if !bytes.Equal(outs[i], img[int64(i)*per:int64(i+1)*per]) {
			t.Fatalf("view %d read back other bytes than it wrote", i)
		}
	}

	rows, _ := part.RowBlocks(n, n, nSub)
	bt.b.arm(nSub, nSub*R) // source reads, then commit writes
	nf, op, err := c.StartRedistribute(f, "shared.v2", part.MustFile(0, rows), nil, n*n)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	check("redistribute")
	if op.Err != nil || op.Degraded != nil {
		t.Fatalf("redistribute: err %v, degraded %v", op.Err, op.Degraded)
	}
	want := redist.SplitFile(part.MustFile(0, rows), img)
	for e := range want {
		if !bytes.Equal(nf.Subfile(e), want[e]) {
			t.Fatalf("redistributed subfile %d differs from the reference decomposition", e)
		}
	}
}

// TestConcurrentViewsShareSubfiles: four views write disjoint parts of
// the same subfiles (every replica) in one RunAll, their calls held
// until all are in flight and then released together into the local
// stores, in memory and on disk. The stores must end byte-identical to
// the reference decomposition; under -race this is the check that the
// local stores are safe for concurrent calls.
func TestConcurrentViewsShareSubfiles(t *testing.T) {
	const n, nSub, R = 64, 4, 2
	for _, tc := range []struct {
		name   string
		stores func(t *testing.T) clusterfile.StorageFactory
	}{
		{"mem", func(*testing.T) clusterfile.StorageFactory { return nil }},
		{"file", func(t *testing.T) clusterfile.StorageFactory { return clusterfile.DirStorageFactory(t.TempDir()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, f, views, bt := overlapCluster(t, R, tc.stores(t), n, nSub)
			img := matrixImage(n)
			bt.b.arm(len(views) * nSub * R)
			writeAllViews(t, c, views, img)
			if left := bt.b.disarm(); len(left) != 0 {
				t.Fatalf("phases %v never had all their calls in flight", left)
			}
			want := redist.SplitFile(f.Phys, img)
			for e := range want {
				for r := 0; r < R; r++ {
					n, err := f.ReplicaLen(context.Background(), r, e)
					if err != nil || n != int64(len(want[e])) {
						t.Fatalf("replica %d of subfile %d: Len %d (%v), want %d", r, e, n, err, len(want[e]))
					}
				}
				if !bytes.Equal(f.Subfile(e), want[e]) {
					t.Fatalf("subfile %d differs from the reference decomposition", e)
				}
			}
			// The primaries match the reference; the scrub holds every
			// replica to its primary.
			rep, err := f.Scrub(context.Background())
			if err != nil || !rep.Clean() {
				t.Fatalf("scrub: %v, mismatches %+v", err, rep)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
