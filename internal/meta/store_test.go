package meta

import (
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parafile/internal/codec"
	"parafile/internal/rpc"
)

func testFile(name string, epoch uint64, nodes ...string) *rpc.MetaFile {
	assign := make([]int, len(nodes))
	for i := range assign {
		assign[i] = i
	}
	return &rpc.MetaFile{
		Name:        name,
		StripeBytes: 4096,
		Replication: 1,
		Epoch:       epoch,
		StoreName:   name,
		Nodes:       nodes,
		Assign:      assign,
	}
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir, StoreConfig{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreCRUDPersists(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openTestStore(t, dir)

	for _, addr := range []string{"n1:1", "n2:1", "n3:1"} {
		if _, err := st.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatalf("SetNode(%s): %v", addr, err)
		}
	}
	if err := st.Create(ctx, testFile("a", 1, "n1:1", "n2:1")); err != nil {
		t.Fatalf("Create a: %v", err)
	}
	if err := st.Create(ctx, testFile("b", 1, "n2:1", "n3:1")); err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if err := st.Create(ctx, testFile("a", 1, "n1:1")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	if _, err := st.Extend(ctx, "a", 9000); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	// Extend never shrinks.
	if f, err := st.Extend(ctx, "a", 100); err != nil || f.Length != 9000 {
		t.Fatalf("Extend shrink: got %v len %d, want 9000", err, f.Length)
	}
	if err := st.Remove(ctx, "b"); err != nil {
		t.Fatalf("Remove b: %v", err)
	}
	if err := st.Remove(ctx, "never-existed"); err != nil {
		t.Fatalf("Remove absent: %v", err)
	}
	if _, err := st.SetNode(ctx, "n3:1", rpc.NodeDraining); err != nil {
		t.Fatalf("drain n3: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openTestStore(t, dir)
	files := st2.List()
	if len(files) != 1 || files[0].Name != "a" || files[0].Length != 9000 {
		t.Fatalf("after restart List = %+v, want just a with length 9000", files)
	}
	if _, err := st2.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get removed file: got %v, want ErrNotFound", err)
	}
	if got := st2.ActiveNodes(); len(got) != 2 || got[0] != "n1:1" || got[1] != "n2:1" {
		t.Fatalf("ActiveNodes after restart = %v, want [n1:1 n2:1]", got)
	}
	nodes := st2.Nodes()
	if len(nodes) != 3 || nodes[2].Addr != "n3:1" || nodes[2].State != rpc.NodeDraining {
		t.Fatalf("Nodes after restart = %v, want n3 draining last", nodes)
	}
}

func TestStoreCommitCAS(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, t.TempDir())
	if err := st.Create(ctx, testFile("f", 3, "n1:1", "n2:1")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Commit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 3, StoreName: "f@4", Nodes: []string{"n2:1", "n3:1"}, Assign: []int{0, 1},
	})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got.Epoch != 4 || got.StoreName != "f@4" || len(got.Nodes) != 2 || got.Nodes[0] != "n2:1" {
		t.Fatalf("committed record = %+v", got)
	}
	// Losing CAS: the epoch moved to 4, a commit naming 3 must fail.
	_, err = st.Commit(ctx, &rpc.MetaCommitReq{
		Name: "f", OldEpoch: 3, StoreName: "f@4b", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale commit: got %v, want ErrStaleEpoch", err)
	}
	if _, err := st.Commit(ctx, &rpc.MetaCommitReq{Name: "ghost", OldEpoch: 1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("commit of absent file: got %v, want ErrNotFound", err)
	}
}

func TestStoreDecommissionValidation(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, t.TempDir())
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	// Active → removed without draining is rejected.
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeRemoved); !errors.Is(err, ErrNodeBusy) {
		t.Fatalf("remove active node: got %v, want ErrNodeBusy", err)
	}
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeDraining); err != nil {
		t.Fatal(err)
	}
	// Draining but still referenced by a file is rejected.
	if err := st.Create(ctx, testFile("f", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeRemoved); !errors.Is(err, ErrNodeBusy) {
		t.Fatalf("remove referenced node: got %v, want ErrNodeBusy", err)
	}
	if err := st.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeRemoved); err != nil {
		t.Fatalf("remove drained empty node: %v", err)
	}
	if got := st.ActiveNodes(); len(got) != 0 {
		t.Fatalf("ActiveNodes after removal = %v", got)
	}
	if _, err := st.SetNode(ctx, "", rpc.NodeActive); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := st.SetNode(ctx, "n2:1", 99); err == nil {
		t.Fatal("unknown state accepted")
	}
}

// TestStoreCrashMidRecord truncates the log mid-record — the
// crash-during-append window — and asserts the replay keeps every
// complete record and loses only the torn one.
func TestStoreCrashMidRecord(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openTestStore(t, dir)
	if err := st.Create(ctx, testFile("kept", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "meta.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	keptSize := fi.Size()
	if err := st.Create(ctx, testFile("torn", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second record: cut the log half-way into its bytes.
	if err := os.Truncate(logPath, keptSize+(fi.Size()-keptSize)/2); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	if _, err := st2.Get("kept"); err != nil {
		t.Fatalf("complete record lost after torn-tail replay: %v", err)
	}
	if _, err := st2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record resurrected: %v", err)
	}
	// The truncation must leave the log on a record boundary: the next
	// append and restart round-trip cleanly.
	if err := st2.Create(ctx, testFile("after", 1, "n1:1")); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openTestStore(t, dir)
	for _, want := range []string{"kept", "after"} {
		if _, err := st3.Get(want); err != nil {
			t.Fatalf("Get(%s) after second restart: %v", want, err)
		}
	}
}

// TestStoreCrashMidSnapshot simulates dying while writing the snapshot
// tmp file: a leftover (even corrupt) tmp must be ignored, with the
// namespace replayed from the previous snapshot + log, and no file
// lost.
func TestStoreCrashMidSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st := openTestStore(t, dir)
	if err := st.Create(ctx, testFile("a", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ctx); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "meta.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after snapshot: %v size %d", err, fi.Size())
	}
	if err := st.Create(ctx, testFile("b", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn snapshot tmp — garbage, no magic, half a record — as a
	// crash mid-write would leave it.
	if err := os.WriteFile(filepath.Join(dir, "meta.snap.tmp"), []byte("pfmeta01\x7fgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	for _, want := range []string{"a", "b"} {
		if _, err := st2.Get(want); err != nil {
			t.Fatalf("Get(%s) after mid-snapshot crash: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.snap.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover snapshot tmp not cleaned: %v", err)
	}
}

// TestStoreSnapshotCompaction drives enough mutations past a tiny
// threshold to trigger automatic compaction and verifies the state
// survives a restart from snapshot + fresh log.
func TestStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	st, err := OpenStore(dir, StoreConfig{SnapshotEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.SetNode(ctx, "n1:1", rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := st.Extend(ctx, "f", int64(i)); !errors.Is(err, ErrNotFound) && err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := st.Create(ctx, testFile("f", 1, "n1:1")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := int64(1); i <= 32; i++ {
		if _, err := st.Extend(ctx, "f", i*100); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.snap")); err != nil {
		t.Fatalf("no snapshot after %d mutations past a 256-byte threshold: %v", 32, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	f, err := st2.Get("f")
	if err != nil || f.Length != 3200 {
		t.Fatalf("after compacted restart: %+v, %v (want length 3200)", f, err)
	}
	if got := st2.ActiveNodes(); len(got) != 1 || got[0] != "n1:1" {
		t.Fatalf("ActiveNodes after compacted restart = %v", got)
	}
}

// goldenRecord returns one record of testdata/records.golden.
func goldenRecord(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			b, err := hex.DecodeString(rest)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("no %s record in the golden file", name)
	return nil
}

// TestStoreRefusesUnindexedRecords: the store writes every log record
// inside a recEntry envelope and every snapshot behind a recApplied
// header, so a log holding a bare put, or a snapshot without its
// position header, is refused rather than replayed.
func TestStoreRefusesUnindexedRecords(t *testing.T) {
	put := goldenRecord(t, "put")
	logDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(logDir, logName), appendFramed(nil, put), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenStore(logDir, StoreConfig{}); err == nil {
		st.Close()
		t.Error("log holding a bare put record replayed")
	}
	snapDir := t.TempDir()
	snap := appendFramed(append([]byte(nil), snapMagic...), put)
	if err := os.WriteFile(filepath.Join(snapDir, snapName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := OpenStore(snapDir, StoreConfig{}); err == nil {
		st.Close()
		t.Error("snapshot without its applied-position header loaded")
	}
}

// FuzzStoreRecord throws arbitrary bytes at the record framing and
// every record decoder: nothing may panic, and a decoded record must
// decode to itself again once re-encoded.
func FuzzStoreRecord(f *testing.F) {
	for _, name := range []string{"put", "del", "node", "entry", "applied"} {
		f.Add(appendFramed(nil, goldenRecord(f, name)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, err := readRecord(data)
		if err != nil {
			return
		}
		st := &Store{files: make(map[string]*rpc.MetaFile), nodes: make(map[string]byte)}
		_ = st.apply(payload)
		var e entryRec
		if decodeRecord(payload, recEntry, &e) == nil {
			_ = st.apply(e.inner)
			var again entryRec
			if err := decodeRecord(record(recEntry, &e), recEntry, &again); err != nil || !reflect.DeepEqual(e, again) {
				t.Fatalf("entry %+v re-decodes to %+v, %v", e, again, err)
			}
		}
		var a appliedRec
		if decodeRecord(payload, recApplied, &a) == nil {
			var again appliedRec
			if err := decodeRecord(record(recApplied, &a), recApplied, &again); err != nil || a != again {
				t.Fatalf("applied %+v re-decodes to %+v, %v", a, again, err)
			}
		}
		var v voteRec
		_ = codec.Decode(payload, &v)
		for _, f := range st.files {
			var again rpc.MetaFile
			if err := decodeRecord(record(recPut, f), recPut, &again); err != nil || !reflect.DeepEqual(*f, again) {
				t.Fatalf("put %+v re-decodes to %+v, %v", f, again, err)
			}
		}
	})
}
