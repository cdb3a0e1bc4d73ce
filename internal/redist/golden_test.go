package redist

import (
	"fmt"
	"os"
	"testing"

	"parafile/internal/falls"
)

// TestProjectionGolden pins the bytes SetView ships: the projection
// encoding of one fixed nested projection.
func TestProjectionGolden(t *testing.T) {
	p := &Projection{
		Set: falls.Set{
			falls.MustNested(falls.MustNew(0, 7, 16, 4), falls.Set{falls.MustLeaf(1, 2, 4, 2)}),
			falls.MustLeaf(100, 100, 1, 1),
		},
		Period: 128,
	}
	p.Bytes = p.Set.Size()
	got := fmt.Sprintf("projection %x\n", EncodeProjection(p))
	want, err := os.ReadFile("testdata/projection.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("projection bytes moved:\nwant %sgot  %s", want, got)
	}
}
