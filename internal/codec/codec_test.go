package codec

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"parafile/internal/falls"
	"parafile/internal/part"
)

// roundTrip encodes v with wire and decodes the result.
func roundTrip[T any](wire func(*Coder, *T), v T) (T, error) {
	return decodeWith(wire, encodeWith(wire, v))
}

// decodeWith decodes all of buf with wire.
func decodeWith[T any](wire func(*Coder, *T), buf []byte) (T, error) {
	var v T
	c := NewDecoder(buf)
	wire(&c, &v)
	return v, c.Finish()
}

func TestFALLSRoundTrip(t *testing.T) {
	cases := []falls.FALLS{
		falls.MustNew(2, 5, 6, 5),
		falls.MustNew(0, 0, 1, 1),
		falls.MustNew(1000000, 1000063, 2048, 4096),
	}
	for _, f := range cases {
		got, err := roundTrip(FALLSWire, f)
		if err != nil || got != f {
			t.Errorf("round trip of %v: got %v, err %v", f, got, err)
		}
	}
}

// randSet mirrors the generators of the falls tests.
func randSet(rng *rand.Rand, span int64, depth int) falls.Set {
	var out falls.Set
	cursor := int64(0)
	for m := 0; m < 3 && span-cursor >= 4; m++ {
		blockLen := 1 + rng.Int63n(4)
		l := cursor + rng.Int63n(3)
		r := l + blockLen - 1
		if r >= span {
			break
		}
		s := blockLen + rng.Int63n(8)
		maxN := (span - 1 - r) / s
		n := int64(1)
		if maxN > 0 {
			n = 1 + rng.Int63n(min64(maxN, 6)+1)
		}
		member := falls.Leaf(falls.FALLS{L: l, R: r, S: s, N: n})
		if depth > 1 && blockLen >= 3 && rng.Intn(2) == 0 {
			member.Inner = randSet(rng, blockLen, depth-1)
			if len(member.Inner) == 0 {
				member.Inner = nil
			}
		}
		out = append(out, member)
		cursor = member.Extent() + 1
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestPropertySetRoundTrip: random nested sets survive the wire
// byte-for-byte (structurally).
func TestPropertySetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	for iter := 0; iter < 300; iter++ {
		s := randSet(rng, 96, 3)
		if s.Validate() != nil {
			continue
		}
		got, err := roundTrip(SetWire, s)
		if err != nil {
			t.Fatalf("decode of %v failed: %v", s, err)
		}
		if !got.Equal(s) {
			t.Fatalf("round trip changed set:\nin  %v\nout %v", s, got)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	pat, err := part.NewPattern(
		part.Element{Name: "even", Set: falls.Set{falls.MustLeaf(0, 0, 2, 8)}},
		part.Element{Name: "odd", Set: falls.Set{falls.MustLeaf(1, 1, 2, 8)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := part.MustFile(7, pat)
	buf := EncodeFile(f)
	got, err := DecodeFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Displacement != 7 || got.Pattern.Len() != 2 {
		t.Fatalf("file round trip: %+v", got)
	}
	if got.Pattern.Element(0).Name != "even" || got.Pattern.Element(1).Name != "odd" {
		t.Errorf("names lost: %v, %v", got.Pattern.Element(0).Name, got.Pattern.Element(1).Name)
	}
	if !got.Pattern.Element(0).Set.Equal(f.Pattern.Element(0).Set) {
		t.Error("element set changed")
	}
}

// TestCorruptionRejected: truncations and bit flips fail with
// ErrCorrupt instead of panicking or returning garbage.
func TestCorruptionRejected(t *testing.T) {
	pat, _ := part.Block1D(64, 4)
	f := part.MustFile(0, pat)
	buf := EncodeFile(f)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeFile(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(151))
	for iter := 0; iter < 200; iter++ {
		corrupted := append([]byte(nil), buf...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		got, err := DecodeFile(corrupted)
		if err == nil {
			// A flip may decode to a different but valid file; that is
			// acceptable — it must still be a *valid* pattern.
			if got == nil || got.Pattern == nil {
				t.Fatal("nil result without error")
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) && got != nil {
			t.Fatalf("unexpected error shape: %v", err)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeFile(append(buf, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Bomb guard: absurd member counts fail fast.
	bomb := binary.AppendUvarint(nil, 1)     // version
	bomb = binary.AppendVarint(bomb, 0)      // displacement
	bomb = binary.AppendUvarint(bomb, 1<<40) // element count
	if _, err := DecodeFile(bomb); err == nil {
		t.Error("element-count bomb accepted")
	}
}

// TestDeepNestingRejected: a crafted blob with pathological nesting
// depth fails cleanly instead of exhausting the stack.
func TestDeepNestingRejected(t *testing.T) {
	// Build a 100-deep chain: each level one member (0,0,1,1) whose
	// inner set is the next level.
	var build func(depth int) []byte
	build = func(depth int) []byte {
		trivial := falls.MustNew(0, 0, 1, 1)
		c := NewEncoder(binary.AppendUvarint(nil, 1)) // one member
		FALLSWire(&c, &trivial)
		if depth == 0 {
			return binary.AppendUvarint(c.Buf(), 0) // empty inner
		}
		buf := c.Buf()
		return append(buf, build(depth-1)...)
	}
	deep := build(100)
	if _, err := decodeWith(SetWire, deep); err == nil {
		t.Fatal("100-deep nesting accepted")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unexpected error: %v", err)
	}
	// A modest depth still decodes.
	shallow := build(8)
	if _, err := decodeWith(SetWire, shallow); err != nil {
		t.Fatalf("8-deep nesting rejected: %v", err)
	}
}
