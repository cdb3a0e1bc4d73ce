package meta

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/hpf"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// fs.go is the client side of the metadata service: open files by
// name, cache the placement map, and run byte-range reads and writes
// through the clusterfile collective protocol against the placement's
// data daemons. When a daemon answers ErrStalePlacement — the file was
// rebalanced under the client — the client refetches the map from the
// service, rebinds the new generation over the same daemon clients and
// retries transparently.
//
// An FS holds one rpc.Client per daemon address, shared by every file,
// every rebind and every rebalance it runs: one connection, one
// breaker, one RetryAfter pace gate and one projection registration
// table per daemon for the whole process, as §8's compute node sets a
// view once and reuses it. Clients are built on first use and closed
// only by FS.Close; a daemon that leaves every placement keeps an idle
// client (one map entry, at most one idle socket) until then.

// Options configures Dial.
type Options struct {
	// Client is the template of the FS's one client per daemon, data
	// and metadata alike (Addr is set per daemon, Metrics is taken
	// from Options.Metrics, and Trace is forced on for the data
	// daemons when Tracer is set).
	Client rpc.ClientConfig
	// OpTimeout bounds every collective data operation (zero: none).
	OpTimeout time.Duration
	// MaxRetries bounds the stale-placement refetch-and-retry loop of
	// one read/write (default 8).
	MaxRetries int
	// RetryBackoff is the wait between stale retries (default 25ms) —
	// a fence holds from the rebalance's first gather to its commit,
	// and writers issued in that window spin against it.
	RetryBackoff time.Duration
	// RebalanceWorkers bounds concurrent per-file moves inside
	// RebalanceAll (default 4).
	RebalanceWorkers int
	// Metrics receives the FS series (stale retries, rebalances) plus
	// the client/cluster series; nil records nothing.
	Metrics *obs.Registry
	// Tracer, when non-nil, makes every collective operation (and every
	// rebalance) a distributed trace.
	Tracer *obs.Tracer
	// Log receives structured events; nil logs nothing.
	Log *slog.Logger
}

// FS is a connection to a metadata service (or a replicated group of
// them).
type FS struct {
	md   *mdClient
	data *clientPool // the data daemons' clients, by address
	opts Options

	metStale      *obs.Counter
	metRebalances *obs.Counter
	metRebalanced *obs.Counter
	metGC         *obs.Counter
}

// Dial connects to the metadata service. addr may be a single address
// or a comma-separated endpoint list for a replicated group; the FS
// discovers the leaseholder by following NotLeader redirects and fails
// over through elections transparently.
func Dial(addr string, opts Options) *FS {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 8
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	cfg := opts.Client
	cfg.Metrics = opts.Metrics
	data := cfg
	if opts.Tracer != nil {
		// Data ops — rebalance copies included — then show up in the
		// daemons' /debug/trace.
		data.Trace = true
	}
	fs := &FS{
		md:   newMDClient(splitEndpoints(addr), cfg, opts.Metrics),
		data: newClientPool(data),
		opts: opts,
	}
	if reg := opts.Metrics; reg != nil {
		fs.metStale = reg.Counter("parafile_meta_stale_retries_total")
		fs.metRebalances = reg.Counter("parafile_rebalance_total")
		fs.metRebalanced = reg.Counter("parafile_rebalance_bytes_moved_total")
		fs.metGC = reg.Counter("parafile_meta_gc_total")
	}
	return fs
}

// Close closes the FS's metadata and data-daemon clients. Files still
// open on it fail their later operations instead of redialing.
func (fs *FS) Close() error {
	fs.md.pool.close()
	fs.data.close()
	return nil
}

// List returns the namespace.
func (fs *FS) List(ctx context.Context) ([]*rpc.MetaFile, error) {
	return fs.md.MetaList(ctx)
}

// Remove deletes a namespace entry (the daemons' stores are left to
// garbage collection; the name is immediately reusable).
func (fs *FS) Remove(ctx context.Context, name string) error {
	return fs.md.MetaRemove(ctx, name)
}

// Nodes returns the membership table.
func (fs *FS) Nodes(ctx context.Context) ([]rpc.MetaNode, error) {
	return fs.md.MetaNodes(ctx)
}

// SetNode registers a node or changes its membership state.
func (fs *FS) SetNode(ctx context.Context, addr string, state byte) ([]rpc.MetaNode, error) {
	return fs.md.MetaNodeSet(ctx, addr, state)
}

// Stat returns the current metadata record of a file.
func (fs *FS) Stat(ctx context.Context, name string) (*rpc.MetaFile, error) {
	return fs.md.MetaOpen(ctx, name)
}

// Create registers a new file (stripe 0 takes the service default,
// replication 0 means 1) and opens it.
func (fs *FS) Create(ctx context.Context, name string, stripeBytes int64, replication int) (*File, error) {
	mf, err := fs.md.MetaCreate(ctx, &rpc.MetaCreateReq{
		Name: name, StripeBytes: stripeBytes, Replication: replication,
	})
	if err != nil {
		return nil, err
	}
	return fs.open(ctx, mf)
}

// Open opens an existing file by name.
func (fs *FS) Open(ctx context.Context, name string) (*File, error) {
	mf, err := fs.md.MetaOpen(ctx, name)
	if err != nil {
		return nil, err
	}
	return fs.open(ctx, mf)
}

func (fs *FS) open(ctx context.Context, mf *rpc.MetaFile) (*File, error) {
	f := &File{fs: fs, name: mf.Name}
	if err := f.bind(ctx, mf); err != nil {
		return nil, err
	}
	return f, nil
}

// transport is a view of the FS's shared data clients in the given
// node order, with reopen-without-truncate semantics: several clients
// and the rebalance driver share the stores.
func (fs *FS) transport(nodes []string) *rpc.Transport {
	clients := make([]*rpc.Client, len(nodes))
	for i, addr := range nodes {
		clients[i] = fs.data.get(addr)
	}
	return rpc.NewTransportOver(clients, rpc.Options{Reopen: true})
}

// clusterConfig is the per-placement cluster template.
func (fs *FS) clusterConfig(nodes int, tr clusterfile.Transport) clusterfile.Config {
	cfg := clusterfile.DefaultConfig()
	cfg.ComputeNodes = 1
	cfg.IONodes = nodes
	cfg.Transport = tr
	cfg.OpTimeout = fs.opts.OpTimeout
	cfg.Metrics = fs.opts.Metrics
	cfg.Tracer = fs.opts.Tracer
	cfg.Log = fs.opts.Log
	return cfg
}

// stripePattern is the physical partition of a placement: S subfiles
// of W contiguous bytes each, tiling the file in S*W periods —
// 1-D BLOCK striping in the paper's file model.
func stripePattern(subfiles int, stripeBytes int64) (*part.File, error) {
	pat, err := hpf.Pattern(
		fmt.Sprintf("%d", int64(subfiles)*stripeBytes),
		fmt.Sprintf("BLOCK(%d)", subfiles), 1)
	if err != nil {
		return nil, err
	}
	return part.NewFile(0, pat)
}

// wholeView is the identity view over the same period: one element
// selecting every byte, so view offsets are file offsets.
func wholeView(subfiles int, stripeBytes int64) (*part.File, error) {
	pat, err := hpf.Pattern(fmt.Sprintf("%d", int64(subfiles)*stripeBytes), "*", 1)
	if err != nil {
		return nil, err
	}
	return part.NewFile(0, pat)
}

// placementRows expands (nodes, assign, replication) into explicit
// [replica][subfile] placement rows: replica r of subfile s on node
// index (assign[s]+r) mod len(nodes).
func placementRows(mf *rpc.MetaFile) [][]int {
	rows := make([][]int, mf.Replication)
	for r := range rows {
		row := make([]int, len(mf.Assign))
		for s, a := range mf.Assign {
			row[s] = (a + r) % len(mf.Nodes)
		}
		rows[r] = row
	}
	return rows
}

// File is an open metadata-managed file. Reads and writes address the
// file's logical byte space; striping, placement, replication and
// epoch stamping are resolved through the cached placement map.
type File struct {
	fs   *FS
	name string

	mu      sync.Mutex
	mf      *rpc.MetaFile
	cluster *clusterfile.Cluster
	cf      *clusterfile.File
	view    *clusterfile.View
}

// bind (re)builds the cluster, file handles and identity view for the
// given placement map, over a view of the FS's shared daemon clients.
func (f *File) bind(ctx context.Context, mf *rpc.MetaFile) error {
	if len(mf.Nodes) == 0 || len(mf.Assign) == 0 {
		return fmt.Errorf("meta: %q has an empty placement", mf.Name)
	}
	if mf.Replication < 1 || mf.Replication > len(mf.Nodes) {
		return fmt.Errorf("meta: %q replication %d over %d nodes", mf.Name, mf.Replication, len(mf.Nodes))
	}
	phys, err := stripePattern(len(mf.Assign), mf.StripeBytes)
	if err != nil {
		return err
	}
	lf, err := wholeView(len(mf.Assign), mf.StripeBytes)
	if err != nil {
		return err
	}
	cluster, err := clusterfile.New(f.fs.clusterConfig(len(mf.Nodes), f.fs.transport(mf.Nodes)))
	if err != nil {
		return err
	}
	// The previous generation's handles are dropped, not closed: a wire
	// close would delete the daemons' store entries, and other clients
	// (or the rebalance driver) may still be reading them.
	cf, err := cluster.CreateFilePlacementCtx(ctx, mf.StoreName, phys, placementRows(mf), mf.Epoch)
	if err != nil {
		return err
	}
	view, err := cf.SetViewCtx(ctx, 0, lf, 0)
	if err != nil {
		return err
	}
	f.mf = mf
	f.cluster = cluster
	f.cf = cf
	f.view = view
	return nil
}

// refresh refetches the placement map and rebinds when it moved.
func (f *File) refresh(ctx context.Context) error {
	mf, err := f.fs.md.MetaOpen(ctx, f.name)
	if err != nil {
		return err
	}
	if f.mf != nil && mf.Epoch == f.mf.Epoch {
		f.mf.Length = mf.Length
		return nil
	}
	return f.bind(ctx, mf)
}

// Name returns the namespace name.
func (f *File) Name() string { return f.name }

// Placement returns the cached placement map.
func (f *File) Placement() *rpc.MetaFile {
	f.mu.Lock()
	defer f.mu.Unlock()
	cp := *f.mf
	cp.Nodes = append([]string(nil), f.mf.Nodes...)
	cp.Assign = append([]int(nil), f.mf.Assign...)
	return &cp
}

// Length returns the cached logical length.
func (f *File) Length() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mf.Length
}

// Close releases nothing: the daemon clients belong to the FS and
// close with FS.Close, and the daemons' stores stay open — names are
// shared state owned by the metadata service, not by any one client.
func (f *File) Close() error { return nil }

// staleErr reports whether any failure in err's tree means the
// client's placement view is out of date — a stale-placement verdict,
// or an unknown-file answer from a daemon whose superseded store the
// rebalance GC already swept. Both resolve the same way: refetch the
// map and retry on the current epoch. PartialError outcomes are
// scanned individually, since Unwrap may surface a different node's
// error first.
func staleErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrStalePlacement) || errors.Is(err, rpc.ErrUnknownFile) {
		return true
	}
	var pe *clusterfile.PartialError
	if errors.As(err, &pe) {
		for _, o := range pe.Outcomes {
			if o.Err != nil && (errors.Is(o.Err, rpc.ErrStalePlacement) || errors.Is(o.Err, rpc.ErrUnknownFile)) {
				return true
			}
		}
	}
	return false
}

// degradedStale reports whether a quorum-absorbed failure was a stale
// verdict: the op met quorum, but some replica straddled an epoch
// flip — the caller retries on the new epoch so no replica is torn.
func degradedStale(pe *clusterfile.PartialError) bool {
	if pe == nil {
		return false
	}
	for _, o := range pe.Outcomes {
		if o.Err != nil && errors.Is(o.Err, rpc.ErrStalePlacement) {
			return true
		}
	}
	return false
}

// WriteAt writes p at logical offset off, growing the file. A write
// raced against a placement flip is rejected whole by the fenced/
// moved-on daemons and retried whole on the new epoch — never torn
// across generations.
func (f *File) WriteAt(ctx context.Context, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("meta: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.retryStale(ctx, func() error {
		op, err := f.view.StartWriteCtx(ctx, clusterfile.ToBufferCache, off, off+int64(len(p))-1, p)
		if err != nil {
			return err
		}
		f.cluster.RunAll()
		if op.Err != nil {
			return op.Err
		}
		if degradedStale(op.Degraded) {
			return fmt.Errorf("%w (degraded write straddled an epoch flip)", rpc.ErrStalePlacement)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if end := off + int64(len(p)); end > f.mf.Length {
		mf, err := f.fs.md.MetaExtend(ctx, f.name, end)
		if err != nil {
			return fmt.Errorf("meta: write landed but length extend failed: %w", err)
		}
		f.mf.Length = mf.Length
	}
	return nil
}

// ReadAt fills p from logical offset off. Reads flow during a
// rebalance (the old epoch serves until the commit); only after the
// flip does the stale retry land them on the new generation.
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("meta: negative offset %d", off)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retryStale(ctx, func() error {
		op, err := f.view.StartReadCtx(ctx, off, off+int64(len(p))-1, p)
		if err != nil {
			return err
		}
		f.cluster.RunAll()
		return op.Err
	})
}

// retryStale runs one collective attempt, refetching the placement
// and retrying while daemons answer ErrStalePlacement (bounded by
// MaxRetries). Attempts are whole-operation: a partially-acknowledged
// write is re-issued in full on the new epoch, which is idempotent.
func (f *File) retryStale(ctx context.Context, attempt func() error) error {
	var err error
	for try := 0; try <= f.fs.opts.MaxRetries; try++ {
		if try > 0 {
			if f.fs.metStale != nil {
				f.fs.metStale.Inc()
			}
			select {
			case <-time.After(f.fs.opts.RetryBackoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if rerr := f.refresh(ctx); rerr != nil {
				return fmt.Errorf("meta: placement refresh: %w", rerr)
			}
		}
		if err = attempt(); !staleErr(err) {
			return err
		}
	}
	return fmt.Errorf("meta: placement still stale after %d retries: %w", f.fs.opts.MaxRetries, err)
}
