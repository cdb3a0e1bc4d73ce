package meta

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parafile/internal/rpc"
)

// golden_test.go pins the on-disk bytes: testdata/records.golden holds
// the encoding of one fixed value of every store record type, the
// vote file, and a whole snapshot. A codec change that moves a byte
// of the log or snapshot format fails here.

func goldenRecords(t *testing.T) string {
	f := &rpc.MetaFile{
		Name: "matrix", StripeBytes: 65536, Replication: 2, Epoch: 3 << 20,
		StoreName: "matrix@3145728", Length: 1 << 33,
		Nodes: []string{"10.0.0.1:7070", "10.0.0.2:7070"}, Assign: []int{1, 0},
	}
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ctx := context.Background()
	for _, addr := range f.Nodes {
		if _, err := st.SetNode(ctx, addr, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SetNode(ctx, "10.0.0.3:7070", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Create(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveVote(7, "10.0.0.9:7060"); err != nil {
		t.Fatal(err)
	}
	vote, err := os.ReadFile(filepath.Join(dir, voteName))
	if err != nil {
		t.Fatal(err)
	}
	recs := []struct {
		name string
		enc  []byte
	}{
		{"put", record(recPut, f)},
		{"del", record(recDel, &delRec{"matrix"})},
		{"node", record(recNode, &rpc.MetaNode{Addr: "10.0.0.3:7070", State: 1})},
		{"entry", record(recEntry, &entryRec{300, 5, record(recDel, &delRec{"matrix"})})},
		{"applied", record(recApplied, &appliedRec{300, 5})},
		{"vote", vote},
		{"snapshot", st.SerializeState()},
	}
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%s %x\n", r.name, r.enc)
	}
	return b.String()
}

func TestRecordsGolden(t *testing.T) {
	got := goldenRecords(t)
	want, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("record bytes moved:\nwant\n%s\ngot\n%s", want, got)
	}
}
