package clusterfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"parafile/internal/part"
	"parafile/internal/redist"
)

// TestDiskBackedSubfiles: the full write/read cycle works with
// subfiles stored as real files, and the on-disk bytes match the
// expected physical decomposition.
func TestDiskBackedSubfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Storage = DirStorageFactory(dir)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	cols, err := part.ColBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.CreateFile("disk.mat", part.MustFile(0, cols), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := part.RowBlocks(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	logical := part.MustFile(0, rows)
	img := make([]byte, n*n)
	for i := range img {
		img[i] = byte(i*7 + 3)
	}
	per := int64(n * n / 4)
	ops := make([]*WriteOp, 4)
	views := make([]*View, 4)
	for node := 0; node < 4; node++ {
		v, err := f.SetView(node, logical, node)
		if err != nil {
			t.Fatal(err)
		}
		views[node] = v
		op, err := v.StartWrite(ToBufferCache, 0, per-1, img[int64(node)*per:int64(node+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		ops[node] = op
	}
	c.RunAll()
	for i, op := range ops {
		if op.Err != nil || !op.Done() {
			t.Fatalf("node %d disk-backed write failed: %v", i, op.Err)
		}
	}
	// The real files on disk hold exactly the column decomposition.
	want := redist.SplitFile(part.MustFile(0, cols), img)
	for e := 0; e < 4; e++ {
		path := filepath.Join(dir, "disk.mat.subfile0"+string(rune('0'+e)))
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("subfile file missing: %v", err)
		}
		if !bytes.Equal(got, want[e]) {
			t.Fatalf("on-disk subfile %d differs from expected decomposition", e)
		}
	}
	// Read back through the views from disk.
	for node := 0; node < 4; node++ {
		out := make([]byte, per)
		op, err := views[node].StartRead(0, per-1, out)
		if err != nil {
			t.Fatal(err)
		}
		c.RunAll()
		if op.Err != nil {
			t.Fatal(op.Err)
		}
		if !bytes.Equal(out, img[int64(node)*per:int64(node+1)*per]) {
			t.Fatalf("node %d disk-backed read-back differs", node)
		}
	}
}

func TestMemStorageBounds(t *testing.T) {
	m := &memStorage{}
	if err := m.EnsureLen(8); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte{1, 2}, 7); err == nil {
		t.Error("overflowing write accepted")
	}
	if err := m.ReadAt(make([]byte, 2), 7); err == nil {
		t.Error("overflowing read accepted")
	}
	if err := m.WriteAt([]byte{1}, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if err := m.WriteAt([]byte{9}, 3); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1)
	if err := m.ReadAt(p, 3); err != nil || p[0] != 9 {
		t.Errorf("read back = %v, %v", p, err)
	}
	// Growing preserves content.
	if err := m.EnsureLen(16); err != nil {
		t.Fatal(err)
	}
	if err := m.ReadAt(p, 3); err != nil || p[0] != 9 {
		t.Errorf("content lost on grow: %v, %v", p, err)
	}
}

// TestMemStorageAppendGrowth: append-shaped growth keeps Len exact at
// every step (spare capacity never shows), keeps what was written, and
// hands out zeroes for every newly exposed byte.
func TestMemStorageAppendGrowth(t *testing.T) {
	m := &memStorage{}
	const step = 100
	chunk := bytes.Repeat([]byte{0xEE}, step/2)
	for n := int64(step); n <= 64*step; n += step {
		if err := m.EnsureLen(n); err != nil {
			t.Fatal(err)
		}
		if m.Len() != n {
			t.Fatalf("Len = %d after EnsureLen(%d)", m.Len(), n)
		}
		if err := m.ReadAt(make([]byte, 1), n); err == nil {
			t.Fatalf("read past Len %d reached spare capacity", n)
		}
		got := make([]byte, step)
		if err := m.ReadAt(got, n-step); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, step)) {
			t.Fatalf("bytes [%d,%d) exposed by growth are not zero", n-step, n)
		}
		// Half of each step is written, half stays a hole.
		if err := m.WriteAt(chunk, n-step); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]byte, m.Len())
	if err := m.ReadAt(all, 0); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(all); off += step {
		if !bytes.Equal(all[off:off+step/2], chunk) || !bytes.Equal(all[off+step/2:off+step], make([]byte, step/2)) {
			t.Fatalf("step at %d lost its content across later growth", off)
		}
	}
}

// BenchmarkMemStorageAppend4K appends a 4 MiB store in 4 KiB pieces,
// growing before each piece the way every local data op does.
func BenchmarkMemStorageAppend4K(b *testing.B) {
	const piece, total = 4 << 10, 4 << 20
	chunk := make([]byte, piece)
	b.SetBytes(total)
	for i := 0; i < b.N; i++ {
		m := &memStorage{}
		for off := int64(0); off < total; off += piece {
			if err := m.EnsureLen(off + piece); err != nil {
				b.Fatal(err)
			}
			if err := m.WriteAt(chunk, off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestFileStorageBounds(t *testing.T) {
	dir := t.TempDir()
	st, err := DirStorageFactory(dir)("bounds", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.EnsureLen(8); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 8 {
		t.Errorf("Len = %d, want 8", st.Len())
	}
	if err := st.WriteAt([]byte{1, 2}, 7); err == nil {
		t.Error("overflowing write accepted")
	}
	if err := st.WriteAt([]byte{5, 6}, 2); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 2)
	if err := st.ReadAt(p, 2); err != nil || p[0] != 5 || p[1] != 6 {
		t.Errorf("read back = %v, %v", p, err)
	}
	// Shrinking never happens: EnsureLen with smaller n is a no-op.
	if err := st.EnsureLen(4); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 8 {
		t.Errorf("EnsureLen shrank the store to %d", st.Len())
	}
}

// TestStorageSync: Sync is a no-op for memory and flushes (without
// erroring or losing content) for files; Close implies a final Sync so
// another process sees the bytes afterwards.
func TestStorageSync(t *testing.T) {
	m := &memStorage{}
	if err := m.Sync(); err != nil {
		t.Fatalf("mem sync: %v", err)
	}

	dir := t.TempDir()
	st, err := DirStorageFactory(dir)("synced", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureLen(8); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAt([]byte("durable!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("file sync: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "synced.subfile00"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable!" {
		t.Fatalf("on-disk content %q after sync+close", got)
	}
}

// closeCounter is a Storage without a Discard method.
type closeCounter struct {
	Storage
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return c.Storage.Close() }

// TestDiscardStorage: discarding a file-backed store closes and deletes
// it in one step; a store without the capability is closed the plain
// way.
func TestDiscardStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := DirStorageFactory(dir)("doomed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureLen(8); err != nil {
		t.Fatal(err)
	}
	if err := DiscardStorage(st); err != nil {
		t.Fatalf("discard: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed.subfile00")); !os.IsNotExist(err) {
		t.Fatalf("backing file survived the discard: %v", err)
	}
	if err := st.Sync(); err == nil {
		t.Error("store still open after the discard")
	}
	plain := &closeCounter{Storage: &memStorage{}}
	if err := DiscardStorage(plain); err != nil || plain.closes != 1 {
		t.Errorf("fallback discard: err %v, %d closes, want one plain Close", err, plain.closes)
	}
}

// TestFileStorageEnsureLenReopen: when the cached size trails the real
// file (a store handed out by the reopen factory in a fresh process,
// or a file grown behind the store's back), EnsureLen must pick up the
// on-disk size instead of truncating the file down from a stale size.
func TestFileStorageEnsureLenReopen(t *testing.T) {
	dir := t.TempDir()
	// Write 16 bytes and close, as a previous daemon run would.
	first, err := DirStorageFactory(dir)("grown", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.EnsureLen(16); err != nil {
		t.Fatal(err)
	}
	content := []byte("sixteen bytes!!!")
	if err := first.WriteAt(content, 0); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and ask for less than what is on disk: the store must
	// adopt the on-disk size, not shrink the file.
	st, err := ReopenDirStorageFactory(dir)("grown", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 16 {
		t.Fatalf("reopened Len = %d, want 16", st.Len())
	}
	if err := st.EnsureLen(4); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 16 {
		t.Fatalf("EnsureLen(4) after reopen left Len = %d, want 16", st.Len())
	}

	// The hostile case: the file grows behind a store whose cached size
	// is stale (simulated by growing the on-disk file directly). A
	// subsequent EnsureLen between the stale size and the real size
	// must not truncate away the tail.
	if err := os.Truncate(filepath.Join(dir, "grown.subfile00"), 32); err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureLen(24); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 32 {
		t.Fatalf("EnsureLen(24) with a 32-byte file left Len = %d, want 32", st.Len())
	}
	got := make([]byte, 16)
	if err := st.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content %q corrupted by EnsureLen, want %q", got, content)
	}
}
