package codec

import (
	"encoding/binary"
	"fmt"
)

// coder.go is the one symmetric coder every format of the tree is
// written in: a message describes its fields once, in a Wire method,
// and the same method encodes or decodes it depending on the Coder's
// mode. Encoder and decoder therefore cannot drift apart. The coder
// uses no reflection; a decode error is sticky, so a Wire method codes
// its fields straight through and the caller checks once at the end.

// Message is a value with one symmetric description of its encoding.
type Message interface {
	Wire(c *Coder)
}

// Coder encodes into, or decodes from, a byte slice.
type Coder struct {
	buf []byte // encode: the output so far; decode: the unread input
	dec bool
	err error
}

// NewEncoder returns a coder that appends to buf.
func NewEncoder(buf []byte) Coder { return Coder{buf: buf} }

// NewDecoder returns a coder that reads buf.
func NewDecoder(buf []byte) Coder { return Coder{buf: buf, dec: true} }

// Decoding reports whether the coder decodes.
func (c *Coder) Decoding() bool { return c.dec }

// Buf returns the encoded bytes, or the input not yet decoded.
func (c *Coder) Buf() []byte { return c.buf }

// Err returns the first decode failure, wrapping ErrCorrupt.
func (c *Coder) Err() error { return c.err }

// Fail records a decode failure (the first one wins) and stops every
// later field from reading.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		c.buf = nil
	}
}

// Finish ends a decode: the input must be used up.
func (c *Coder) Finish() error {
	if c.err == nil && c.dec && len(c.buf) != 0 {
		c.Fail(fmt.Errorf("%d trailing bytes", len(c.buf)))
	}
	return c.err
}

// Append appends the encoding of m to buf.
func Append(buf []byte, m Message) []byte {
	c := NewEncoder(buf)
	m.Wire(&c)
	return c.buf
}

// Decode decodes m from all of buf.
func Decode(buf []byte, m Message) error {
	c := NewDecoder(buf)
	m.Wire(&c)
	return c.Finish()
}

// Uvarint codes an unsigned varint.
func (c *Coder) Uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	if c.err != nil {
		*v = 0
		return
	}
	x, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.Fail(fmt.Errorf("bad uvarint"))
		return
	}
	*v, c.buf = x, c.buf[n:]
}

// Varint codes a signed (zig-zag) varint.
func (c *Coder) Varint(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	if c.err != nil {
		*v = 0
		return
	}
	x, n := binary.Varint(c.buf)
	if n <= 0 {
		c.Fail(fmt.Errorf("bad varint"))
		return
	}
	*v, c.buf = x, c.buf[n:]
}

// Int codes an int as the uvarint of its bits, the encoding of counts,
// indexes and small settings.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	c.Uvarint(&u)
	*v = int(u)
}

// Byte codes one raw byte.
func (c *Coder) Byte(b *byte) {
	if !c.dec {
		c.buf = append(c.buf, *b)
		return
	}
	if c.err != nil {
		*b = 0
		return
	}
	if len(c.buf) < 1 {
		c.Fail(fmt.Errorf("missing byte"))
		return
	}
	*b, c.buf = c.buf[0], c.buf[1:]
}

// Bool codes a flag as one byte, 1 or 0; any nonzero byte decodes true.
func (c *Coder) Bool(b *bool) {
	var x byte
	if *b {
		x = 1
	}
	c.Byte(&x)
	*b = x != 0
}

// Len codes the length of a byte field or list of n elements and
// returns the length to code: n when encoding, the decoded length when
// decoding (zero after a failure). A decoded length must not exceed
// the input left, since every element takes at least one byte.
func (c *Coder) Len(n int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if c.dec && u > uint64(len(c.buf)) {
		c.Fail(fmt.Errorf("length %d overruns %d-byte input", u, len(c.buf)))
		return 0
	}
	return int(u)
}

// Raw codes n bytes with no length prefix. Decoded bytes alias the
// input.
func (c *Coder) Raw(b *[]byte, n int) {
	if !c.dec {
		c.buf = append(c.buf, (*b)[:n]...)
		return
	}
	if c.err != nil {
		*b = nil
		return
	}
	if n > len(c.buf) {
		c.Fail(fmt.Errorf("%d-byte field overruns %d-byte input", n, len(c.buf)))
		*b = nil
		return
	}
	*b, c.buf = c.buf[:n:n], c.buf[n:]
	if n == 0 {
		*b = nil // one decoded form of empty, as lists and copies have
	}
}

// Rest codes the bytes that end a message, with no length prefix: a
// decode takes all of the input left, aliased.
func (c *Coder) Rest(b *[]byte) {
	n := len(*b)
	if c.dec {
		n = len(c.buf)
	}
	c.Raw(b, n)
}

// Bytes codes a length-prefixed byte field. Decoded bytes alias the
// input: use BytesCopy for a field that outlives it.
func (c *Coder) Bytes(b *[]byte) {
	c.Raw(b, c.Len(len(*b)))
}

// BytesCopy codes a length-prefixed byte field; decoded bytes are
// copied out of the input.
func (c *Coder) BytesCopy(b *[]byte) {
	c.Bytes(b)
	if c.dec {
		*b = append([]byte(nil), *b...)
	}
}

// String codes a length-prefixed string.
func (c *Coder) String(s *string) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	var b []byte
	c.Bytes(&b)
	*s = string(b)
}

// MaxList caps every decoded list count. With Len's check that each
// element takes a byte of input, it is the one plausibility cap: no
// list of the tree's formats is longer, and a corrupt count cannot
// allocate the machine away.
const MaxList = 1 << 20

// List codes the count of *s: a decode makes *s that long (nil when
// empty), and the caller then codes each element in place.
func List[S ~[]E, E any](c *Coder, s *S) {
	n := c.Len(len(*s))
	if !c.dec {
		return
	}
	*s = nil
	if n > MaxList {
		c.Fail(fmt.Errorf("implausible count %d", n))
	} else if n > 0 {
		*s = make(S, n)
	}
}
