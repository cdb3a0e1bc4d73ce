package clusterfile

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"

	"parafile/internal/falls"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// transport.go is the seam between the protocol engine and the place
// subfile bytes physically live. The cluster's write/read/redistribute
// paths perform every byte-moving storage operation through a
// SubfileHandle obtained from the configured Transport:
//
//   - the in-process transport (the default, NewLocalTransport) backs
//     each handle with a local Storage from the configured factory —
//     semantically identical to the pre-seam code;
//   - the TCP transport (package rpc) backs each handle with the
//     parafiled daemon of the subfile's I/O node, so the same compiled
//     projections drive scatter/gather over real sockets;
//   - the fault transport (package fault) wraps either of the above
//     with a deterministic per-node fault plan for robustness tests.
//
// Every byte-moving method takes a context: the operation-level
// context of the collective op it serves, carrying the per-op deadline
// and the sibling-cancellation signal. A remote implementation bounds
// its RPCs by it; the local one only has to observe cancellation.
//
// The virtual-time cost models (netsim, disksim) are independent of
// the transport: they keep supplying the reported timings either way,
// while the transport decides where the bytes actually land.

// SubfileHandle is one subfile's byte store as seen by the protocol:
// the Storage operations plus the projection-driven scatter/gather the
// §8.1 servers execute. Scatter and Gather operate on the projection's
// selected regions within [lo, hi] of the subfile's linear space, so a
// remote implementation ships one request per operation instead of one
// per segment.
//
// Data ops grow: WriteAt, ReadAt, Scatter and Gather first grow the
// subfile (zero filled) to cover the window they address, so a caller
// never pairs them with an EnsureLen — over a remote transport that
// would be a second, write-class round trip per operation. Unwritten
// holes therefore read as zeroes, like any sparse file.
type SubfileHandle interface {
	// EnsureLen grows the subfile to at least n bytes (zero filled) —
	// for callers that mean "extend" without moving data.
	EnsureLen(ctx context.Context, n int64) error
	// Len returns the current subfile size.
	Len(ctx context.Context) (int64, error)
	// WriteAt stores p contiguously at off.
	WriteAt(ctx context.Context, p []byte, off int64) error
	// ReadAt fills p contiguously from off.
	ReadAt(ctx context.Context, p []byte, off int64) error
	// Scatter unpacks contiguous data into the regions the projection
	// selects within [lo, hi] — the §8 SCATTER.
	Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error
	// Gather packs the regions the projection selects within [lo, hi]
	// into dst — the §8 GATHER.
	Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error
	// Checksum returns the CRC32C (Castagnoli) of bytes [off, off+n) of
	// the subfile's linear space; bytes beyond the current length read
	// as zeroes, matching the sparse-file semantics of the grow-first
	// read path. Scrub compares replicas with it without shipping data.
	Checksum(ctx context.Context, off, n int64) (uint32, error)
	// Close releases the handle (syncing durable stores).
	Close() error
}

// Transport opens the subfile stores of a file on its I/O nodes.
type Transport interface {
	// Open prepares one handle per subfile. assign maps each subfile
	// index to its I/O node.
	Open(ctx context.Context, name string, phys *part.File, assign []int) ([]SubfileHandle, error)
	// Close releases transport-level resources (connection pools).
	Close() error
}

// EpochTransport is the optional placement-epoch extension of a
// Transport: OpenEpoch is Open with every returned handle's storage
// operations stamped with the placement epoch, so daemons that track
// epochs reject stale ops with ErrStalePlacement (and writes while
// fenced). The rpc transport implements it; transports that do not
// (the local one) are opened unstamped — epoch enforcement is a
// property of the remote protocol, not of local stores.
type EpochTransport interface {
	OpenEpoch(ctx context.Context, name string, phys *part.File, assign []int, epoch uint64) ([]SubfileHandle, error)
}

// NewLocalTransport is the in-process transport: subfiles are local
// Storage instances from the factory (nil selects in-memory stores).
func NewLocalTransport(factory StorageFactory) Transport {
	if factory == nil {
		factory = MemStorageFactory
	}
	return &localTransport{factory: factory}
}

type localTransport struct {
	// mu serializes the factory: a file's replica tiers open
	// concurrently, and a factory need not be safe for that.
	mu      sync.Mutex
	factory StorageFactory
}

func (t *localTransport) Open(ctx context.Context, name string, phys *part.File, assign []int) ([]SubfileHandle, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	handles := make([]SubfileHandle, len(assign))
	for i := range assign {
		var st Storage
		err := ctx.Err()
		if err == nil {
			st, err = t.factory(name, i)
		}
		if err != nil {
			for _, h := range handles[:i] {
				h.Close()
			}
			return nil, err
		}
		handles[i] = &localHandle{st: st}
	}
	return handles, nil
}

func (t *localTransport) Close() error { return nil }

// localHandle adapts a Storage to the SubfileHandle interface. Local
// stores cannot block, so observing ctx before each operation is the
// whole cancellation story; ensureLen does that and the grow every data
// op starts with. The ranks of a collective write disjoint parts of one
// subfile concurrently, so each operation holds the handle's lock, as
// the daemon holds its file's.
type localHandle struct {
	mu sync.Mutex
	st Storage
}

// ensureLen is EnsureLen with the lock held.
func (h *localHandle) ensureLen(ctx context.Context, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return h.st.EnsureLen(n)
}

func (h *localHandle) EnsureLen(ctx context.Context, n int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ensureLen(ctx, n)
}

func (h *localHandle) Len(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st.Len(), nil
}

func (h *localHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureLen(ctx, off+int64(len(p))); err != nil {
		return err
	}
	return h.st.WriteAt(p, off)
}

func (h *localHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureLen(ctx, off+int64(len(p))); err != nil {
		return err
	}
	return h.st.ReadAt(p, off)
}

func (h *localHandle) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st.Close()
}

func (h *localHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureLen(ctx, hi+1); err != nil {
		return err
	}
	return ScatterRange(h.st, data, p, lo, hi)
}

func (h *localHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensureLen(ctx, hi+1); err != nil {
		return err
	}
	return GatherRange(dst, h.st, p, lo, hi)
}

func (h *localHandle) Checksum(ctx context.Context, off, n int64) (uint32, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return ChecksumRange(h.st, off, n)
}

// ScatterRange unpacks contiguous data into the storage regions the
// projection selects within [lo, hi] — the §8 SCATTER against an
// arbitrary subfile store. It is shared by the local transport and the
// rpc server, which keeps both sides of the wire byte-identical.
func ScatterRange(store Storage, data []byte, p *redist.Projection, lo, hi int64) error {
	var pos int64
	var err error
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		if pos+seg.Len() > int64(len(data)) {
			err = fmt.Errorf("clusterfile: scatter underflow")
			return false
		}
		if err = store.WriteAt(data[pos:pos+seg.Len()], seg.L); err != nil {
			return false
		}
		pos += seg.Len()
		return true
	})
	return err
}

// castagnoli is the CRC32C polynomial table shared by every checksum
// in the replication layer (subfile segments and wire frames alike).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumChunk bounds the scratch buffer ChecksumRange reads through.
const checksumChunk = 64 << 10

// ChecksumRange computes the CRC32C of bytes [off, off+n) of a subfile
// store, treating bytes beyond the store's current length as zeroes
// (the same sparse semantics the grow-first read path exposes). It is
// shared by the local transport and the rpc server, which keeps scrub
// verdicts identical across transports.
func ChecksumRange(store Storage, off, n int64) (uint32, error) {
	if off < 0 || n < 0 {
		return 0, fmt.Errorf("clusterfile: checksum range [%d,+%d) invalid", off, n)
	}
	var sum uint32
	end := off + n
	avail := store.Len()
	buf := make([]byte, checksumChunk)
	pos := off
	for pos < end && pos < avail {
		m := end - pos
		if a := avail - pos; a < m {
			m = a
		}
		if m > checksumChunk {
			m = checksumChunk
		}
		if err := store.ReadAt(buf[:m], pos); err != nil {
			return 0, err
		}
		sum = crc32.Update(sum, castagnoli, buf[:m])
		pos += m
	}
	if pos < end {
		clear(buf) // the tail beyond the store's length reads as zeroes
		for pos < end {
			m := end - pos
			if m > checksumChunk {
				m = checksumChunk
			}
			sum = crc32.Update(sum, castagnoli, buf[:m])
			pos += m
		}
	}
	return sum, nil
}

// GatherRange packs the storage regions the projection selects within
// [lo, hi] into dst — the §8 GATHER from a subfile store.
func GatherRange(dst []byte, store Storage, p *redist.Projection, lo, hi int64) error {
	var pos int64
	var err error
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		if pos+seg.Len() > int64(len(dst)) {
			err = fmt.Errorf("clusterfile: gather overflow")
			return false
		}
		if err = store.ReadAt(dst[pos:pos+seg.Len()], seg.L); err != nil {
			return false
		}
		pos += seg.Len()
		return true
	})
	return err
}
