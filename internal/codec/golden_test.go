package codec

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"parafile/internal/falls"
	"parafile/internal/part"
)

// golden_test.go pins the bytes of the FALLS, set and file encoders:
// EncodeFile is the plan-cache fingerprint and CreateFile's physical
// partition, so its bytes must never move.

func encodeWith[T any](wire func(*Coder, *T), v T) []byte {
	c := NewEncoder(nil)
	wire(&c, &v)
	return c.Buf()
}

func TestCodecGolden(t *testing.T) {
	set := falls.Set{
		falls.MustNested(falls.MustNew(0, 7, 16, 4), falls.Set{falls.MustLeaf(1, 2, 4, 2)}),
		falls.MustLeaf(100, 100, 1, 1),
	}
	pat, err := part.NewPattern(
		part.Element{Name: "even", Set: falls.Set{falls.MustLeaf(0, 0, 2, 8)}},
		part.Element{Name: "odd", Set: falls.Set{falls.MustLeaf(1, 1, 2, 8)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	encs := []struct {
		name string
		enc  []byte
	}{
		{"falls", encodeWith(FALLSWire, falls.MustNew(1000000, 1000063, 2048, 4096))},
		{"set", encodeWith(SetWire, set)},
		{"file", EncodeFile(part.MustFile(7, pat))},
	}
	var b strings.Builder
	for _, e := range encs {
		fmt.Fprintf(&b, "%s %x\n", e.name, e.enc)
	}
	want, err := os.ReadFile("testdata/codec.golden")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != b.String() {
		t.Errorf("codec bytes moved:\nwant\n%s\ngot\n%s", want, b.String())
	}
}
