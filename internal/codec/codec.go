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
// The encoding is varint-based (encoding/binary), self-delimiting and
// versioned.
package codec

import (
	"encoding/binary"
	"fmt"

	"parafile/internal/falls"
	"parafile/internal/part"
)

// Version tags the wire format.
const Version = 1

// ErrCorrupt is wrapped by all decode failures.
var ErrCorrupt = fmt.Errorf("codec: corrupt input")

// AppendUvarint appends an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends a signed (zig-zag) varint.
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// ReadUvarint consumes an unsigned varint, returning the remainder.
func ReadUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

// ReadVarint consumes a signed varint, returning the remainder.
func ReadVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, buf[n:], nil
}

// Unexported aliases keep the package-internal call sites short.
func appendUvarint(buf []byte, v uint64) []byte      { return AppendUvarint(buf, v) }
func appendVarint(buf []byte, v int64) []byte        { return AppendVarint(buf, v) }
func readUvarint(buf []byte) (uint64, []byte, error) { return ReadUvarint(buf) }
func readVarint(buf []byte) (int64, []byte, error)   { return ReadVarint(buf) }

// AppendFALLS appends the encoding of a flat FALLS.
func AppendFALLS(buf []byte, f falls.FALLS) []byte {
	buf = appendVarint(buf, f.L)
	buf = appendVarint(buf, f.R)
	buf = appendVarint(buf, f.S)
	buf = appendVarint(buf, f.N)
	return buf
}

// DecodeFALLS decodes a flat FALLS, returning the remaining bytes.
func DecodeFALLS(buf []byte) (falls.FALLS, []byte, error) {
	var f falls.FALLS
	var err error
	if f.L, buf, err = readVarint(buf); err != nil {
		return f, nil, err
	}
	if f.R, buf, err = readVarint(buf); err != nil {
		return f, nil, err
	}
	if f.S, buf, err = readVarint(buf); err != nil {
		return f, nil, err
	}
	if f.N, buf, err = readVarint(buf); err != nil {
		return f, nil, err
	}
	if err := f.Validate(); err != nil {
		return f, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return f, buf, nil
}

// AppendSet appends the encoding of a nested FALLS set.
func AppendSet(buf []byte, s falls.Set) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	for _, n := range s {
		buf = AppendFALLS(buf, n.FALLS)
		buf = AppendSet(buf, n.Inner)
	}
	return buf
}

// maxNestingDepth bounds decoded tree height: deeper inputs are
// corrupt (or hostile) — real partitions are a handful of levels.
const maxNestingDepth = 64

// DecodeSet decodes a nested FALLS set.
func DecodeSet(buf []byte) (falls.Set, []byte, error) {
	return decodeSetDepth(buf, 0)
}

func decodeSetDepth(buf []byte, depth int) (falls.Set, []byte, error) {
	if depth > maxNestingDepth {
		return nil, nil, fmt.Errorf("%w: nesting deeper than %d levels", ErrCorrupt, maxNestingDepth)
	}
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(buf)) {
		// Each member needs at least one byte; cheap bomb guard.
		return nil, nil, fmt.Errorf("%w: implausible member count %d", ErrCorrupt, count)
	}
	var s falls.Set
	for i := uint64(0); i < count; i++ {
		var f falls.FALLS
		if f, buf, err = DecodeFALLS(buf); err != nil {
			return nil, nil, err
		}
		var inner falls.Set
		if inner, buf, err = decodeSetDepth(buf, depth+1); err != nil {
			return nil, nil, err
		}
		n, err := falls.NewNested(f, inner)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		s = append(s, n)
	}
	if err := s.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, buf, nil
}

// EncodeFile encodes a file description: displacement plus the named
// partitioning pattern.
func EncodeFile(f *part.File) []byte {
	buf := appendUvarint(nil, Version)
	buf = appendVarint(buf, f.Displacement)
	buf = appendUvarint(buf, uint64(f.Pattern.Len()))
	for _, e := range f.Pattern.Elements() {
		buf = appendUvarint(buf, uint64(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = AppendSet(buf, e.Set)
	}
	return buf
}

// DecodeFile decodes a file description, revalidating the pattern
// tiling.
func DecodeFile(buf []byte) (*part.File, error) {
	v, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, v)
	}
	disp, buf, err := readVarint(buf)
	if err != nil {
		return nil, err
	}
	count, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(buf))+1 {
		return nil, fmt.Errorf("%w: implausible element count %d", ErrCorrupt, count)
	}
	elems := make([]part.Element, 0, count)
	for i := uint64(0); i < count; i++ {
		nameLen, rest, err := readUvarint(buf)
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: name overruns buffer", ErrCorrupt)
		}
		name := string(rest[:nameLen])
		buf = rest[nameLen:]
		var set falls.Set
		if set, buf, err = DecodeSet(buf); err != nil {
			return nil, err
		}
		elems = append(elems, part.Element{Name: name, Set: set})
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	pat, err := part.NewPattern(elems...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return part.NewFile(disp, pat)
}
