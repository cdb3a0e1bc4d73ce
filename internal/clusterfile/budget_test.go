package clusterfile_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"parafile/internal/clusterfile"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// budget_test.go pins the call budget of the data paths: how many
// SubfileHandle calls a collective operation makes and how many store
// calls land behind them. The counts repeat exactly, so the tests
// assert equality — they are the guard against a per-segment or
// per-transfer path creeping back.

// spyTransport decorates a Transport: it counts every handle call by
// method, and per (store name, subfile, method), and can fail chosen
// calls. A collective issues its calls concurrently, so note locks;
// the tests read calls after RunAll, once every call has returned.
type spyTransport struct {
	inner clusterfile.Transport
	mu    sync.Mutex
	calls map[string]int // by method, and by "name/subfile/method"
	// fail, when non-nil, is consulted before every data call; a
	// non-nil error is returned instead of performing it.
	fail func(name string, sub int, method string) error
}

func newSpy(inner clusterfile.Transport) *spyTransport {
	return &spyTransport{inner: inner, calls: make(map[string]int)}
}

func (t *spyTransport) reset() { t.calls = make(map[string]int) }

// total sums the handle calls of the given methods.
func (t *spyTransport) total(methods ...string) int {
	n := 0
	for _, m := range methods {
		n += t.calls[m]
	}
	return n
}

func (t *spyTransport) Open(ctx context.Context, name string, phys *part.File, assign []int) ([]clusterfile.SubfileHandle, error) {
	handles, err := t.inner.Open(ctx, name, phys, assign)
	if err != nil {
		return nil, err
	}
	for i, h := range handles {
		handles[i] = &spyHandle{SubfileHandle: h, t: t, name: name, sub: i}
	}
	return handles, nil
}

func (t *spyTransport) Close() error { return t.inner.Close() }

type spyHandle struct {
	clusterfile.SubfileHandle
	t    *spyTransport
	name string
	sub  int
}

func (h *spyHandle) note(method string) error {
	h.t.mu.Lock()
	h.t.calls[method]++
	h.t.calls[fmt.Sprintf("%s/%d/%s", h.name, h.sub, method)]++
	fail := h.t.fail
	h.t.mu.Unlock()
	if fail != nil {
		return fail(h.name, h.sub, method)
	}
	return nil
}

func (h *spyHandle) EnsureLen(ctx context.Context, n int64) error {
	if err := h.note("EnsureLen"); err != nil {
		return err
	}
	return h.SubfileHandle.EnsureLen(ctx, n)
}

func (h *spyHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	if err := h.note("WriteAt"); err != nil {
		return err
	}
	return h.SubfileHandle.WriteAt(ctx, p, off)
}

func (h *spyHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	if err := h.note("ReadAt"); err != nil {
		return err
	}
	return h.SubfileHandle.ReadAt(ctx, p, off)
}

func (h *spyHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	if err := h.note("Scatter"); err != nil {
		return err
	}
	return h.SubfileHandle.Scatter(ctx, p, lo, hi, data)
}

func (h *spyHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	if err := h.note("Gather"); err != nil {
		return err
	}
	return h.SubfileHandle.Gather(ctx, p, lo, hi, dst)
}

// countingStores is a StorageFactory over in-memory stores that counts
// the byte-moving calls each store receives, keyed "name/subfile".
type countingStores struct {
	mu            sync.Mutex
	writes, reads map[string]int
}

func newCountingStores() *countingStores {
	return &countingStores{writes: make(map[string]int), reads: make(map[string]int)}
}

func (cs *countingStores) factory(name string, sub int) (clusterfile.Storage, error) {
	st, err := clusterfile.MemStorageFactory(name, sub)
	if err != nil {
		return nil, err
	}
	return &countingStorage{Storage: st, cs: cs, key: fmt.Sprintf("%s/%d", name, sub)}, nil
}

type countingStorage struct {
	clusterfile.Storage
	cs  *countingStores
	key string
}

func (s *countingStorage) WriteAt(p []byte, off int64) error {
	s.cs.mu.Lock()
	s.cs.writes[s.key]++
	s.cs.mu.Unlock()
	return s.Storage.WriteAt(p, off)
}

func (s *countingStorage) ReadAt(p []byte, off int64) error {
	s.cs.mu.Lock()
	s.cs.reads[s.key]++
	s.cs.mu.Unlock()
	return s.Storage.ReadAt(p, off)
}

// budgetCluster is a 4+4 cluster at R=2 over spied, counted in-memory
// stores, holding an n×n matrix stored under column blocks.
func budgetCluster(t *testing.T, n int64) (*clusterfile.Cluster, *clusterfile.File, *spyTransport, *countingStores, []byte) {
	t.Helper()
	stores := newCountingStores()
	spy := newSpy(clusterfile.NewLocalTransport(stores.factory))
	cfg := clusterfile.DefaultConfig()
	cfg.Replication = 2
	cfg.Transport = spy
	c, err := clusterfile.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := part.ColBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateFile("g0", part.MustFile(0, cols), nil)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, n*n)
	for i := range img {
		img[i] = byte(i*13 + 5)
	}
	whole, err := part.Whole(n * n)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.SetView(0, part.MustFile(0, whole), 0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := v.StartWrite(clusterfile.ToBufferCache, 0, n*n-1, img)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if op.Err != nil {
		t.Fatal(op.Err)
	}
	return c, f, spy, stores, img
}

// TestRedistributeCallBudget: a col↔row repartition of a 4-subfile
// matrix at R=2 makes one ReadAt per source subfile and one WriteAt
// per destination replica — and nothing else; each destination replica
// store sees exactly one write.
func TestRedistributeCallBudget(t *testing.T) {
	const n, nSub, R = 64, 4, 2
	c, cur, spy, stores, img := budgetCluster(t, n)
	cols, _ := part.ColBlocks(n, n, nSub)
	rows, _ := part.RowBlocks(n, n, nSub)
	layouts := []*part.File{part.MustFile(0, cols), part.MustFile(0, rows)}
	for gen := 1; gen <= 2; gen++ { // col→row, then row→col
		name := fmt.Sprintf("g%d", gen)
		spy.reset()
		nf, op, err := c.StartRedistribute(cur, name, layouts[gen%2], nil, n*n)
		if err != nil {
			t.Fatal(err)
		}
		c.RunAll()
		if op.Err != nil || op.Degraded != nil {
			t.Fatalf("gen %d: err %v, degraded %v", gen, op.Err, op.Degraded)
		}
		if got := spy.calls["ReadAt"]; got != nSub {
			t.Errorf("gen %d: %d ReadAt handle calls, want %d (one per source subfile)", gen, got, nSub)
		}
		if got := spy.calls["WriteAt"]; got != R*nSub {
			t.Errorf("gen %d: %d WriteAt handle calls, want %d (one per destination replica)", gen, got, R*nSub)
		}
		if got := spy.total("Scatter", "Gather", "EnsureLen"); got != 0 {
			t.Errorf("gen %d: %d Scatter/Gather/EnsureLen handle calls, want 0 (%v)", gen, got, spy.calls)
		}
		for r := 0; r < R; r++ {
			for sub := 0; sub < nSub; sub++ {
				key := fmt.Sprintf("%s/%d", clusterfile.ReplicaName(name, r), sub)
				if got := stores.writes[key]; got != 1 {
					t.Errorf("gen %d: destination store %s saw %d WriteAt, want 1", gen, key, got)
				}
			}
		}
		want := redist.SplitFile(layouts[gen%2], img)
		for e := range want {
			if !bytes.Equal(nf.Subfile(e), want[e]) {
				t.Fatalf("gen %d: subfile %d differs from the reference decomposition", gen, e)
			}
		}
		cur = nf
	}
}

// TestViewIOCallBudget: a collective view write makes one handle call
// per (subfile, replica) delivery, a view read one per subfile — no
// separate grow ahead of either.
func TestViewIOCallBudget(t *testing.T) {
	const n, nSub, R = 64, 4, 2
	c, f, spy, _, img := budgetCluster(t, n)
	rows, _ := part.RowBlocks(n, n, nSub)
	// A row-block view crosses every column-block subfile.
	v, err := f.SetView(1, part.MustFile(0, rows), 1)
	if err != nil {
		t.Fatal(err)
	}
	per := int64(n * n / nSub)
	spy.reset()
	wop, err := v.StartWrite(clusterfile.ToBufferCache, 0, per-1, img[per:2*per])
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if wop.Err != nil {
		t.Fatal(wop.Err)
	}
	if got := spy.calls["Scatter"]; got != R*nSub {
		t.Errorf("view write: %d Scatter handle calls, want %d (one per subfile replica)", got, R*nSub)
	}
	if got := spy.total("Scatter", "WriteAt", "Gather", "ReadAt", "EnsureLen"); got != R*nSub {
		t.Errorf("view write: %d handle calls in all, want %d (%v)", got, R*nSub, spy.calls)
	}

	spy.reset()
	out := make([]byte, per)
	rop, err := v.StartRead(0, per-1, out)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if rop.Err != nil {
		t.Fatal(rop.Err)
	}
	if !bytes.Equal(out, img[per:2*per]) {
		t.Fatal("view read-back differs")
	}
	if got := spy.calls["Gather"]; got != nSub {
		t.Errorf("view read: %d Gather handle calls, want %d (one per subfile)", got, nSub)
	}
	if got := spy.total("Scatter", "WriteAt", "Gather", "ReadAt", "EnsureLen"); got != nSub {
		t.Errorf("view read: %d handle calls in all, want %d (%v)", got, nSub, spy.calls)
	}
}
