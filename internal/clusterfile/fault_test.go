package clusterfile

import (
	"fmt"
	"sync"
	"testing"

	"parafile/internal/part"
)

// fault_test.go injects storage failures into the write and read paths
// and checks that operations report errors instead of corrupting state
// or hanging the event kernel.

// faultyStorage wraps memStorage and fails operations once shared
// fuses burn down (counters shared across all subfiles of the file,
// under one lock: the subfiles are written concurrently).
type faultyStorage struct {
	memStorage
	fuses *fuses
}

type fuses struct {
	mu                    sync.Mutex
	writesLeft, readsLeft int
}

// burn takes one unit of a fuse, reporting false once it is spent.
func (f *fuses) burn(left *int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *left <= 0 {
		return false
	}
	*left--
	return true
}

func (s *faultyStorage) WriteAt(p []byte, off int64) error {
	if !s.fuses.burn(&s.fuses.writesLeft) {
		return fmt.Errorf("injected write fault")
	}
	return s.memStorage.WriteAt(p, off)
}

func (s *faultyStorage) ReadAt(p []byte, off int64) error {
	if !s.fuses.burn(&s.fuses.readsLeft) {
		return fmt.Errorf("injected read fault")
	}
	return s.memStorage.ReadAt(p, off)
}

func faultyFactory(writes, reads int) StorageFactory {
	f := &fuses{writesLeft: writes, readsLeft: reads}
	return func(string, int) (Storage, error) {
		return &faultyStorage{fuses: f}, nil
	}
}

func faultCluster(t *testing.T, writes, reads int) (*Cluster, *View, int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Storage = faultyFactory(writes, reads)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	cols, err := part.ColBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateFile("faulty", part.MustFile(0, cols), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := part.RowBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.SetView(0, part.MustFile(0, rows), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, v, n * n / 4
}

// TestWriteFaultSurfaces: a failing subfile store surfaces as an
// operation error; the kernel still drains.
func TestWriteFaultSurfaces(t *testing.T) {
	c, v, per := faultCluster(t, 0, 1000)
	buf := make([]byte, per)
	op, err := v.StartWrite(ToBufferCache, 0, per-1, buf)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if op.Err == nil {
		t.Fatal("write against failing storage reported no error")
	}
	if c.K.Pending() != 0 {
		t.Errorf("kernel left %d pending events after fault", c.K.Pending())
	}
}

// TestPartialWriteFault: a fault in one subfile's store does not stop
// the other subfiles from acknowledging.
func TestPartialWriteFault(t *testing.T) {
	// Allow two store writes, then fail: the first two subfiles'
	// writes succeed and the third burns the fuse.
	c, v, per := faultCluster(t, 2, 1000)
	buf := make([]byte, per)
	op, err := v.StartWrite(ToBufferCache, 0, per-1, buf)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if op.Err == nil {
		t.Fatal("expected an error from the exhausted store")
	}
	if op.Done() {
		// pending hit zero because errors also decrement; acceptable —
		// but TNet must not have been recorded as success with zero
		// time.
		if op.Stats.TNet < 0 {
			t.Errorf("negative TNet after fault")
		}
	}
}

// TestReadFaultSurfaces: read-side storage failures surface too.
func TestReadFaultSurfaces(t *testing.T) {
	c, v, per := faultCluster(t, 1000, 0)
	buf := make([]byte, per)
	wop, err := v.StartWrite(ToBufferCache, 0, per-1, buf)
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if wop.Err != nil {
		t.Fatalf("write should succeed: %v", wop.Err)
	}
	rop, err := v.StartRead(0, per-1, make([]byte, per))
	if err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if rop.Err == nil {
		t.Fatal("read against failing storage reported no error")
	}
	if c.K.Pending() != 0 {
		t.Errorf("kernel left %d pending events after read fault", c.K.Pending())
	}
}

// TestStorageFactoryFailure: CreateFile surfaces factory errors.
func TestStorageFactoryFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Storage = func(string, int) (Storage, error) {
		return nil, fmt.Errorf("no space")
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := part.ColBlocks(32, 32, 4)
	if _, err := c.CreateFile("f", part.MustFile(0, cols), nil); err == nil {
		t.Fatal("factory failure not surfaced")
	}
}
