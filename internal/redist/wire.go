package redist

import (
	"fmt"

	"parafile/internal/codec"
)

// wire.go is the projection wire format: the encoding Clusterfile uses
// to ship PROJ_S to the I/O nodes at view-set time (§8.1). It is built
// on the codec coder; it lives here (rather than in codec) so that
// codec stays free of redist types and the plan cache can use
// codec.EncodeFile as its fingerprint without an import cycle.

// Wire codes a projection: version, period, bytes, set.
func (p *Projection) Wire(c *codec.Coder) {
	codec.VersionTag(c)
	c.Varint(&p.Period)
	c.Varint(&p.Bytes)
	codec.SetWire(c, &p.Set)
}

// EncodeProjection encodes a projection.
func EncodeProjection(p *Projection) []byte { return codec.Append(nil, p) }

// DecodeProjection decodes a projection; the whole buffer must be
// consumed and the set must select the declared bytes.
func DecodeProjection(buf []byte) (*Projection, error) {
	p := &Projection{}
	if err := codec.Decode(buf, p); err != nil {
		return nil, err
	}
	if p.Set.Size() != p.Bytes {
		return nil, fmt.Errorf("%w: set size %d != declared bytes %d",
			codec.ErrCorrupt, p.Set.Size(), p.Bytes)
	}
	return p, nil
}
