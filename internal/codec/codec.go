// Package codec provides a compact binary wire format for the file
// model's data structures: FALLS, nested FALLS sets, partitioning
// patterns and files. Clusterfile uses it to ship PROJ_S to the I/O
// nodes at view-set time (§8.1) — the structures received over the
// wire are the ones the servers operate on — and it doubles as an
// on-disk metadata format. The projection wire format itself lives in
// package redist (which builds on these primitives), keeping codec
// free of higher-layer dependencies so that redist can in turn use
// EncodeFile as the canonical plan-cache fingerprint.
//
// Every format of the tree — these structures, the rpc messages and
// the metadata log records — is written once, as a Wire method on the
// symmetric Coder (coder.go). The encoding is varint-based
// (encoding/binary), self-delimiting and versioned.
package codec

import (
	"fmt"

	"parafile/internal/falls"
	"parafile/internal/part"
)

// Version tags the wire format.
const Version = 1

// ErrCorrupt is wrapped by all decode failures.
var ErrCorrupt = fmt.Errorf("codec: corrupt input")

// VersionTag codes the format version that leads a file or projection
// encoding; a decode of any other version fails.
func VersionTag(c *Coder) {
	v := uint64(Version)
	c.Uvarint(&v)
	if v != Version && c.Err() == nil {
		c.Fail(fmt.Errorf("unknown version %d", v))
	}
}

// FALLSWire codes a flat FALLS; a decoded one must be valid.
func FALLSWire(c *Coder, f *falls.FALLS) {
	c.Varint(&f.L)
	c.Varint(&f.R)
	c.Varint(&f.S)
	c.Varint(&f.N)
	if c.Decoding() && c.Err() == nil {
		if err := f.Validate(); err != nil {
			c.Fail(err)
		}
	}
}

// maxNestingDepth bounds decoded tree height: deeper inputs are
// corrupt (or hostile) — real partitions are a handful of levels.
const maxNestingDepth = 64

// SetWire codes a nested FALLS set: a count, then each member's FALLS
// and inner set. A decoded set must be valid.
func SetWire(c *Coder, s *falls.Set) { setWire(c, s, 0) }

func setWire(c *Coder, s *falls.Set, depth int) {
	if depth > maxNestingDepth {
		c.Fail(fmt.Errorf("nesting deeper than %d levels", maxNestingDepth))
		return
	}
	List(c, s)
	for i := range *s {
		if c.Decoding() {
			(*s)[i] = new(falls.Nested)
		}
		FALLSWire(c, &(*s)[i].FALLS)
		setWire(c, &(*s)[i].Inner, depth+1)
		if c.Err() != nil {
			*s = nil
			return
		}
	}
	if c.Decoding() {
		if err := s.Validate(); err != nil {
			c.Fail(err)
			*s = nil
		}
	}
}

// file is the encoding of a file description: displacement plus the
// named partitioning pattern.
type file struct {
	disp  int64
	elems []part.Element
}

func (f *file) Wire(c *Coder) {
	VersionTag(c)
	c.Varint(&f.disp)
	List(c, &f.elems)
	for i := range f.elems {
		c.String(&f.elems[i].Name)
		SetWire(c, &f.elems[i].Set)
	}
}

// EncodeFile encodes a file description.
func EncodeFile(f *part.File) []byte {
	return Append(nil, &file{disp: f.Displacement, elems: f.Pattern.Elements()})
}

// DecodeFile decodes a file description, revalidating the pattern
// tiling.
func DecodeFile(buf []byte) (*part.File, error) {
	var f file
	if err := Decode(buf, &f); err != nil {
		return nil, err
	}
	pat, err := part.NewPattern(f.elems...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return part.NewFile(f.disp, pat)
}
