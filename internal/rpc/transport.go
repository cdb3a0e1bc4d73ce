package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parafile/internal/clusterfile"
	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// transport.go adapts a set of parafiled daemons to the
// clusterfile.Transport seam: each subfile's handle forwards the
// protocol's storage operations to the daemon of the subfile's I/O
// node, so the same compiled redistribution plans drive bytes over
// real sockets. When a deployment runs fewer daemons than the cluster
// has I/O nodes, nodes map onto daemons round-robin.

// Options configures a TCP transport.
type Options struct {
	// Client is the per-node client template (Addr is filled per
	// endpoint). Zero values take the ClientConfig defaults.
	Client ClientConfig
	// Reopen opens existing subfiles on the daemons without truncation
	// (the reopen-from-metadata case). Default is a fresh truncate,
	// matching DirStorageFactory.
	Reopen bool
	// DegradedOpen tolerates unreachable daemons at Open time: a failed
	// CreateFile yields handles that error on every operation for that
	// daemon's subfiles, instead of failing the Open wholesale. With
	// replication, the surviving placements then serve reads while the
	// dead node's placements report as failed — the degraded-but-open
	// state parafilectl needs to scrub or repair around a dead node.
	// Default (false) is strict: any unreachable daemon fails Open.
	DegradedOpen bool
	// Metrics receives the client-side RPC series; nil records
	// nothing. Overrides Client.Metrics when set.
	Metrics *obs.Registry
}

// Transport implements clusterfile.Transport over TCP. It is an
// immutable view: node i maps onto clients[i%len(clients)] for its
// whole life.
type Transport struct {
	clients  []*Client
	reopen   bool
	degraded bool
	// owned is set when NewTransport built the clients, so Close
	// closes them; a view over someone else's clients leaves them be.
	owned bool
}

var _ clusterfile.Transport = (*Transport)(nil)

// NewTransport builds a transport over the given daemon endpoints
// (host:port each), one fresh client per endpoint; its Close closes
// them.
func NewTransport(addrs []string, opts Options) (*Transport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpc: transport needs at least one endpoint")
	}
	clients := make([]*Client, len(addrs))
	for i, addr := range addrs {
		cfg := opts.Client
		cfg.Addr = addr
		if opts.Metrics != nil {
			cfg.Metrics = opts.Metrics
		}
		clients[i] = NewClient(cfg)
	}
	t := NewTransportOver(clients, opts)
	t.owned = true
	return t, nil
}

// NewTransportOver builds a transport over existing clients in node
// order (at least one). Only opts.Reopen and opts.DegradedOpen apply:
// the clients carry their own configuration. The caller keeps
// ownership — Close leaves the clients open — so any number of views
// can share one client per daemon.
func NewTransportOver(clients []*Client, opts Options) *Transport {
	return &Transport{clients: clients, reopen: opts.Reopen, degraded: opts.DegradedOpen}
}

// Open registers the file on every involved daemon and returns one
// remote handle per subfile.
func (t *Transport) Open(ctx context.Context, name string, phys *part.File, assign []int) ([]clusterfile.SubfileHandle, error) {
	return t.OpenEpoch(ctx, name, phys, assign, 0)
}

// OpenEpoch is Open with every handle's operations stamped with a
// placement epoch: the daemons compare it against their stores' and
// answer ErrStalePlacement on mismatch (or, for writes, while
// fenced). Epoch zero leaves the operations unstamped: no check.
func (t *Transport) OpenEpoch(ctx context.Context, name string, phys *part.File, assign []int, epoch uint64) ([]clusterfile.SubfileHandle, error) {
	physEnc := codec.EncodeFile(phys)
	// Group the subfiles by daemon. The CreateFile calls run
	// concurrently; their outcomes are settled in client order, so the
	// error an Open returns is deterministic.
	clients := t.clients
	perClient := make(map[*Client][]int)
	for sub, node := range assign {
		c := clients[node%len(clients)]
		perClient[c] = append(perClient[c], sub)
	}
	errs := fanOut(clients, func(c *Client) error {
		subs := perClient[c]
		if len(subs) == 0 {
			return nil
		}
		return c.CreateFile(ctx, &CreateFileReq{Name: name, Phys: physEnc, Subfiles: subs, Reopen: t.reopen, Epoch: epoch})
	})
	refs := make(map[*Client]*fileRef)
	broken := make(map[*Client]error)
	for i, c := range clients {
		subs := perClient[c]
		if len(subs) == 0 {
			continue
		}
		if err := errs[i]; err != nil {
			if t.degraded {
				// Remember the failure; the daemon's subfiles get
				// handles that surface it on every operation, so the
				// replication layer treats the node as failed instead
				// of refusing to open the file at all.
				broken[c] = fmt.Errorf("rpc: create %q on %s: %w", name, c.Addr(), err)
				continue
			}
			return nil, fmt.Errorf("rpc: create %q on %s: %w", name, c.Addr(), err)
		}
		ref := &fileRef{c: c, file: name}
		ref.n.Store(int64(len(subs)))
		refs[c] = ref
	}
	handles := make([]clusterfile.SubfileHandle, len(assign))
	for sub, node := range assign {
		c := clients[node%len(clients)]
		if err, bad := broken[c]; bad {
			handles[sub] = &brokenHandle{err: err}
			continue
		}
		handles[sub] = &remoteHandle{c: c, file: name, subfile: int64(sub), epoch: epoch, ref: refs[c]}
	}
	return handles, nil
}

// fanOut runs call against every client concurrently and returns the
// errors in client order.
func fanOut(clients []*Client, call func(*Client) error) []error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(c)
		}()
	}
	wg.Wait()
	return errs
}

// firstErr fans call out to every client and returns the first failure
// in client order, naming its daemon, or nil.
func (t *Transport) firstErr(what string, call func(*Client) error) error {
	for i, err := range fanOut(t.clients, call) {
		if err != nil {
			return fmt.Errorf("rpc: %s on %s: %w", what, t.clients[i].Addr(), err)
		}
	}
	return nil
}

// SetEpoch fans the placement-epoch flip out to every daemon
// concurrently: each ratchets the file's stores to the epoch and raises
// or clears the write fence. Daemons holding no store of the file
// answer OK.
func (t *Transport) SetEpoch(ctx context.Context, file string, epoch uint64, fence bool) error {
	return t.firstErr("set epoch", func(c *Client) error { return c.SetEpoch(ctx, file, epoch, fence) })
}

// RemoveStore fans a store-generation sweep out to every daemon
// concurrently: each closes the file's stores (replica stores included)
// and deletes their backing media. Daemons not hosting the store answer
// OK, so the sweep is idempotent across the fan-out and across retries.
func (t *Transport) RemoveStore(ctx context.Context, file string) error {
	return t.firstErr("remove store", func(c *Client) error { return c.RemoveStore(ctx, file) })
}

// Close closes the daemon clients of a NewTransport; a view built by
// NewTransportOver has nothing of its own to release.
func (t *Transport) Close() error {
	if t.owned {
		for _, c := range t.clients {
			c.Close()
		}
	}
	return nil
}

// fileRef counts the open handles of one (daemon, file) pair so the
// wire Close travels once, when the last handle closes.
type fileRef struct {
	c    *Client
	file string
	n    atomic.Int64
}

func (r *fileRef) release() error {
	if r.n.Add(-1) > 0 {
		return nil
	}
	// Close carries no context by interface design (it must run during
	// teardown of an already-cancelled op), so the wire close is
	// bounded only by the client's request timeouts.
	return r.c.CloseFile(context.Background(), r.file)
}

// remoteHandle is one subfile on a remote daemon. The handle contract's
// "data ops grow" is the daemon's: the openSeg prelude of every segment
// operation grows the store to Hi+1, so no data op sends an EnsureLen
// ahead of itself.
type remoteHandle struct {
	c       *Client
	file    string
	subfile int64
	// epoch stamps every storage op with the placement epoch the handle
	// was opened at (zero = unstamped, unchecked).
	epoch uint64
	ref   *fileRef

	mu     sync.Mutex
	projFP map[*redist.Projection]uint64 // encode+fingerprint memo
}

func (h *remoteHandle) EnsureLen(ctx context.Context, n int64) error {
	if n <= 0 {
		return nil
	}
	return h.c.WriteSegments(ctx, &WriteSegsReq{File: h.file, Subfile: h.subfile, Lo: 0, Hi: n - 1, Epoch: h.epoch})
}

func (h *remoteHandle) Len(ctx context.Context) (int64, error) {
	return h.c.Stat(ctx, h.file, h.subfile)
}

func (h *remoteHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	return h.c.WriteSegments(ctx, &WriteSegsReq{
		File: h.file, Subfile: h.subfile, Lo: off, Hi: off + int64(len(p)) - 1, Data: p, Epoch: h.epoch,
	})
}

func (h *remoteHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	return h.c.ReadSegments(ctx, &ReadSegsReq{
		File: h.file, Subfile: h.subfile, Lo: off, Hi: off + int64(len(p)) - 1, N: int64(len(p)), Epoch: h.epoch,
	}, p)
}

// ensureProjection encodes and registers the projection on the daemon
// (once per shape per client) and returns its fingerprint.
func (h *remoteHandle) ensureProjection(ctx context.Context, p *redist.Projection) (uint64, []byte, error) {
	h.mu.Lock()
	if h.projFP == nil {
		h.projFP = make(map[*redist.Projection]uint64)
	}
	fp, seen := h.projFP[p]
	h.mu.Unlock()
	var enc []byte
	if !seen {
		enc = redist.EncodeProjection(p)
		fp = Fingerprint(enc)
		h.mu.Lock()
		h.projFP[p] = fp
		h.mu.Unlock()
	}
	if h.c.Registered(fp) {
		return fp, enc, nil
	}
	if enc == nil {
		enc = redist.EncodeProjection(p)
	}
	if err := h.c.SetView(ctx, fp, enc); err != nil {
		return 0, nil, err
	}
	return fp, enc, nil
}

// reRegister refreshes a projection the daemon reported unknown (a
// daemon restart loses the registration table).
func (h *remoteHandle) reRegister(ctx context.Context, p *redist.Projection, fp uint64) error {
	h.c.Forget(fp)
	return h.c.SetView(ctx, fp, redist.EncodeProjection(p))
}

func isUnknownProjection(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == ErrCodeUnknownProjection
}

func (h *remoteHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	fp, _, err := h.ensureProjection(ctx, p)
	if err != nil {
		return err
	}
	req := &WriteSegsReq{File: h.file, Subfile: h.subfile, Fingerprint: fp, Lo: lo, Hi: hi, Data: data, Epoch: h.epoch}
	err = h.c.WriteSegments(ctx, req)
	if isUnknownProjection(err) {
		if err = h.reRegister(ctx, p, fp); err != nil {
			return err
		}
		err = h.c.WriteSegments(ctx, req)
	}
	return err
}

func (h *remoteHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	fp, _, err := h.ensureProjection(ctx, p)
	if err != nil {
		return err
	}
	req := &ReadSegsReq{File: h.file, Subfile: h.subfile, Fingerprint: fp, Lo: lo, Hi: hi, N: int64(len(dst)), Epoch: h.epoch}
	err = h.c.ReadSegments(ctx, req, dst)
	if isUnknownProjection(err) {
		if err = h.reRegister(ctx, p, fp); err != nil {
			return err
		}
		err = h.c.ReadSegments(ctx, req, dst)
	}
	return err
}

func (h *remoteHandle) Checksum(ctx context.Context, off, n int64) (uint32, error) {
	return h.c.Checksum(ctx, h.file, h.subfile, off, n)
}

func (h *remoteHandle) Close() error {
	if h.ref == nil {
		return nil
	}
	return h.ref.release()
}

// brokenHandle stands in for a subfile whose daemon was unreachable
// during a DegradedOpen: every operation reports the open-time error,
// which the replication layer's failover and quorum accounting absorb.
type brokenHandle struct {
	err error
}

func (h *brokenHandle) EnsureLen(ctx context.Context, n int64) error { return h.err }
func (h *brokenHandle) Len(ctx context.Context) (int64, error)       { return 0, h.err }
func (h *brokenHandle) WriteAt(ctx context.Context, p []byte, off int64) error {
	return h.err
}
func (h *brokenHandle) ReadAt(ctx context.Context, p []byte, off int64) error {
	return h.err
}
func (h *brokenHandle) Scatter(ctx context.Context, p *redist.Projection, lo, hi int64, data []byte) error {
	return h.err
}
func (h *brokenHandle) Gather(ctx context.Context, p *redist.Projection, lo, hi int64, dst []byte) error {
	return h.err
}
func (h *brokenHandle) Checksum(ctx context.Context, off, n int64) (uint32, error) {
	return 0, h.err
}
func (h *brokenHandle) Close() error { return nil }
