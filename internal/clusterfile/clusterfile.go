// Package clusterfile reimplements the case study of §8: the data
// operations of the Clusterfile parallel file system, built on the
// mapping functions and the redistribution algorithm.
//
// The cluster divides nodes into compute nodes and I/O nodes. A file
// is physically partitioned into subfiles stored on the I/O nodes'
// disks; applications on compute nodes set views — logical partitions
// described by the same file model. Setting a view intersects it with
// every subfile and stores the two projections of each intersection:
// PROJ_V at the compute node and PROJ_S at the subfile's I/O node.
// Writes then follow the two-sided protocol of §8.1: map the access
// interval's extremities onto each subfile, gather non-contiguous view
// data into a message buffer, send, and scatter into the subfile at
// the I/O node (reads are reverse-symmetrical).
//
// Data movement is performed for real on in-memory subfiles, with the
// real algorithms; network and disk time come from the discrete-event
// models in netsim and disksim, so the §8.2 evaluation can be
// regenerated deterministically (see bench_test.go and
// cmd/redistbench).
package clusterfile

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"parafile/internal/core"
	"parafile/internal/disksim"
	"parafile/internal/netsim"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/sim"
)

// WriteMode selects the storage tier the evaluation writes to —
// Table 1/2 report both.
type WriteMode int

const (
	// ToBufferCache stops at the I/O node's buffer cache (the paper's
	// "bc" columns).
	ToBufferCache WriteMode = iota
	// ToDisk writes through to the platter (the "disk" columns).
	ToDisk
)

func (m WriteMode) String() string {
	if m == ToDisk {
		return "disk"
	}
	return "bc"
}

// Config describes a cluster.
type Config struct {
	ComputeNodes int
	IONodes      int
	Net          netsim.Config
	Disk         disksim.Config
	// CopyBandwidthBytesPerSec is the era memory-copy bandwidth used
	// to model gather/scatter CPU time in virtual time (the real
	// copies still run, and are reported separately).
	CopyBandwidthBytesPerSec int64
	// CopySegmentOverheadNs is the per-additional-segment cost of a
	// non-contiguous copy.
	CopySegmentOverheadNs int64
	// Storage creates the byte store for each subfile. Nil selects
	// in-memory subfiles; DirStorageFactory stores them as real files,
	// as the original Clusterfile I/O nodes did. Ignored when Transport
	// is set.
	Storage StorageFactory
	// Transport decides where subfile bytes physically live. Nil
	// selects the in-process transport over the Storage factory (the
	// pre-transport semantics, unchanged); rpc.NewTransport sends the
	// protocol's storage operations to remote parafiled I/O-node
	// daemons over TCP instead. The virtual-time network and disk
	// models are unaffected either way.
	Transport Transport
	// OpTimeout, when positive, bounds every collective operation
	// (write, read, redistribute): the operation context the transport
	// sees carries this deadline, so a hung I/O node turns into a
	// cancelled/failed outcome instead of wedging the whole collective.
	// Zero (the default) sets no deadline.
	OpTimeout time.Duration
	// FailFast, when true, cancels an operation's outstanding sibling
	// transfers as soon as one I/O node fails hard: the remaining nodes
	// report OutcomeCancelled in the PartialError instead of running.
	// The default (false) lets every node finish independently, so a
	// single bad node costs only its own window — the repairable case.
	FailFast bool
	// Replication materializes every subfile on this many I/O nodes:
	// replica r of subfile s lives on node (assign[s]+r) mod IONodes,
	// so each subfile's placement group is R distinct nodes (primary
	// first). Writes scatter to all R placements; reads fail over
	// replica by replica on transport errors. 0 and 1 both mean
	// unreplicated (the pre-replication semantics, unchanged).
	Replication int
	// WriteQuorum is how many replica acknowledgements a subfile's
	// write needs to succeed. 0 (the default) requires all R; a smaller
	// quorum trades durability for availability — the write succeeds
	// while a node is down, reports the stale placements in the op's
	// Degraded field, and Repair heals them when the node returns.
	WriteQuorum int
	// ViewCache, when non-nil, memoizes the per-(view element, subfile)
	// intersection and projection products SetView computes, keyed by
	// partition geometry. Repeated view setting over the same
	// view/layout pair then costs a cache lookup instead of a full
	// intersection — extending the paper's §8.2 amortization argument
	// (pay t_i once per view set) across view sets. A cache may be
	// shared by several clusters.
	ViewCache *redist.PairCache
	// PlanCache, when non-nil, memoizes the redistribution plans
	// StartRedistribute compiles, keyed the same way.
	PlanCache *redist.PlanCache
	// Metrics, when non-nil, receives the cluster's operation series
	// (metrics.go): gather/scatter volumes and latencies, protocol
	// message counts, buffer-pool traffic, per-I/O-node byte totals.
	// Nil (the default) records nothing at zero cost.
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent wall-clock span under which
	// the host-side phases of SetView, writes, reads and
	// redistributions open children — the real-time complement of the
	// virtual-time sim.Tracer.
	Trace *obs.Span
	// Tracer, when non-nil, turns every collective operation into a
	// distributed trace: writes, reads and redistributions open a root
	// span registered with the tracer, the operation context carries it
	// to the transport, and (over the RPC transport against tracing
	// daemons) the servers' child spans come back to be stitched into
	// one cross-node tree, browsable via the tracer's ring and
	// /debug/trace. Nil records nothing at zero cost.
	Tracer *obs.Tracer
	// SlowOpThreshold, when positive and Log is set, emits one
	// structured warning per collective operation that ran longer
	// (wall-clock), carrying the op's trace_id so it can be chased into
	// `parafilectl trace`.
	SlowOpThreshold time.Duration
	// Log receives the cluster's structured op log lines (slow ops,
	// failed ops). Nil disables logging. Only operations under a Tracer
	// are logged — the trace span is what measures them.
	Log *slog.Logger
}

// DefaultConfig mirrors the paper's testbed subset: four compute nodes
// and four I/O nodes on a 2002 Myrinet/IDE cluster with 800 MHz
// Pentium III hosts.
func DefaultConfig() Config {
	return Config{
		ComputeNodes:             4,
		IONodes:                  4,
		Net:                      netsim.Myrinet2002(),
		Disk:                     disksim.IDE2002(),
		CopyBandwidthBytesPerSec: 200 * 1000 * 1000,
		CopySegmentOverheadNs:    700,
	}
}

// Cluster is a simulated Clusterfile deployment. Network node ids are
// compute nodes first (0..ComputeNodes-1), then I/O nodes.
type Cluster struct {
	cfg       Config
	K         *sim.Kernel
	Net       *netsim.Network
	Disks     []*disksim.Disk
	files     map[string]*File
	tracer    *sim.Tracer
	met       cfMetrics
	span      *obs.Span
	slow      obs.SlowOpLogger
	transport Transport
	repl      int // normalized Config.Replication (>= 1)
	quorum    int // normalized Config.WriteQuorum (1..repl)
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.ComputeNodes < 1 || cfg.IONodes < 1 {
		return nil, fmt.Errorf("clusterfile: need at least one compute and one I/O node")
	}
	repl := cfg.Replication
	if repl == 0 {
		repl = 1
	}
	if repl < 1 || repl > cfg.IONodes {
		return nil, fmt.Errorf("clusterfile: replication %d outside [1,%d I/O nodes]", repl, cfg.IONodes)
	}
	quorum := cfg.WriteQuorum
	if quorum == 0 {
		quorum = repl
	}
	if quorum < 1 || quorum > repl {
		return nil, fmt.Errorf("clusterfile: write quorum %d outside [1,replication %d]", quorum, repl)
	}
	k := sim.NewKernel()
	c := &Cluster{
		cfg:    cfg,
		K:      k,
		Net:    netsim.New(k, cfg.Net, cfg.ComputeNodes+cfg.IONodes),
		Disks:  make([]*disksim.Disk, cfg.IONodes),
		files:  make(map[string]*File),
		met:    newCFMetrics(cfg.Metrics, cfg.IONodes),
		span:   cfg.Trace,
		slow:   obs.SlowOpLogger{Log: cfg.Log, Threshold: cfg.SlowOpThreshold},
		repl:   repl,
		quorum: quorum,
	}
	for i := range c.Disks {
		c.Disks[i] = disksim.New(k, cfg.Disk)
	}
	c.transport = cfg.Transport
	if c.transport == nil {
		c.transport = NewLocalTransport(cfg.Storage)
	}
	return c, nil
}

// ioNet returns the network node id of I/O node i.
func (c *Cluster) ioNet(i int) int { return c.cfg.ComputeNodes + i }

// opCtx derives a collective operation's context from the caller's:
// the configured per-op deadline plus a cancel the operation uses for
// release and sibling fail-fast. A nil ctx means background.
func (c *Cluster) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.cfg.OpTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.OpTimeout)
	}
	return context.WithCancel(ctx)
}

// startOp opens a traced root span for one collective operation and
// threads it through the operation context, so every transport RPC the
// operation issues joins the trace (and, against tracing daemons, the
// server-side child spans come back for stitching). With no Tracer
// configured the span is nil and octx passes through unchanged — the
// untraced path costs nothing.
func (c *Cluster) startOp(octx context.Context, name string) (context.Context, *obs.Span) {
	sp := c.cfg.Tracer.StartOp(name)
	return obs.ContextWithSpan(octx, sp), sp
}

// finishOp seals one collective operation's trace: error mark,
// publication into the tracer's recent ring, and the structured
// slow-op / failed-op log line. Nil span (untraced cluster) is free.
func (c *Cluster) finishOp(sp *obs.Span, opErr error) {
	if sp == nil {
		return
	}
	if opErr != nil {
		sp.Fail()
	}
	d := sp.End()
	c.cfg.Tracer.FinishOp(sp)
	c.slow.Observe(sp.Name(), sp.TraceID(), d, opErr)
}

// abortStart finishes a traced operation that failed in its
// synchronous start phase, before any delivery went pending.
func (c *Cluster) abortStart(cancel context.CancelFunc, sp *obs.Span, err error) error {
	cancel()
	c.finishOp(sp, err)
	return err
}

// stampTrace tags a PartialError with the operation's trace ID, so a
// partial-failure report can be chased straight into its trace tree.
func stampTrace(opErr error, sp *obs.Span) {
	var pe *PartialError
	if errors.As(opErr, &pe) {
		pe.TraceID = sp.TraceID()
	}
}

// EnableTrace attaches a virtual-time trace recorder to the cluster
// (network sends/receives plus protocol steps) and returns it.
func (c *Cluster) EnableTrace() *sim.Tracer {
	c.tracer = sim.NewTracer()
	c.Net.SetTracer(c.tracer)
	return c.tracer
}

// File is an open Clusterfile file: a physical partition whose
// subfiles live on I/O nodes, materialized on Replication placement
// groups.
type File struct {
	Name string
	Phys *part.File
	// Assign maps each subfile to its primary I/O node (Placement[0]).
	Assign []int
	// Replication is the file's replica count R (>= 1).
	Replication int
	// Placement maps [replica][subfile] -> I/O node: row 0 is the
	// primary assignment, row r places each subfile r nodes further
	// round the ring, so every subfile's placement group is R distinct
	// nodes. Files opened through CreateFilePlacementCtx carry explicit
	// rows instead of the computed ring.
	Placement [][]int
	// Epoch is the placement epoch the file's handles were opened at
	// (zero for files outside the metadata service's regime). Epoch-
	// aware transports stamp it on every storage op.
	Epoch uint64
	// replicas holds [replica][subfile] handles; replicas[0] is the
	// primary tier.
	replicas [][]SubfileHandle
	mappers  []*core.Mapper
	cluster  *Cluster
}

// ReplicaName is the transport-level store name of replica tier r of a
// file: replica 0 keeps the plain name (unreplicated layouts are
// byte-identical on disk to the pre-replication code), later tiers get
// a "~r<r>" suffix so a directory or daemon hosting several tiers of
// the same subfile keeps them apart.
func ReplicaName(name string, r int) string {
	if r == 0 {
		return name
	}
	return fmt.Sprintf("%s~r%d", name, r)
}

// handle returns the handle of replica r of subfile sub.
func (f *File) handle(r, sub int) SubfileHandle { return f.replicas[r][sub] }

// CreateFile registers a file with the given physical partition. The
// assignment maps each subfile to an I/O node; when nil, subfiles are
// assigned round-robin.
func (c *Cluster) CreateFile(name string, phys *part.File, assign []int) (*File, error) {
	return c.CreateFileCtx(context.Background(), name, phys, assign)
}

// CreateFileCtx is CreateFile bounded by a context: the transport's
// store-opening RPCs observe ctx (plus the cluster's OpTimeout).
func (c *Cluster) CreateFileCtx(ctx context.Context, name string, phys *part.File, assign []int) (*File, error) {
	return c.createFileCtx(ctx, name, phys, assign, c.repl)
}

func (c *Cluster) createFileCtx(ctx context.Context, name string, phys *part.File, assign []int, repl int) (*File, error) {
	if repl < 1 || repl > c.cfg.IONodes {
		return nil, fmt.Errorf("clusterfile: replication %d outside [1,%d I/O nodes]", repl, c.cfg.IONodes)
	}
	n := phys.Pattern.Len()
	if assign == nil {
		assign = make([]int, n)
		for i := range assign {
			assign[i] = i % c.cfg.IONodes
		}
	}
	if len(assign) != n {
		return nil, fmt.Errorf("clusterfile: %d assignments for %d subfiles", len(assign), n)
	}
	placement := make([][]int, repl)
	placement[0] = assign
	for r := 1; r < repl; r++ {
		row := make([]int, n)
		for i := range row {
			row[i] = (assign[i] + r) % c.cfg.IONodes
		}
		placement[r] = row
	}
	return c.createFilePlacement(ctx, name, phys, placement, 0)
}

// CreateFilePlacementCtx registers a file with explicit placement rows
// — [replica][subfile] -> I/O node — instead of the computed
// (assign[s]+r) mod IONodes ring. The rebalance driver needs this: it
// opens old and new generations inside one union cluster whose node
// count matches neither generation's, so ring arithmetic would place
// replicas wrong. The file is stamped with a placement epoch: when the
// transport is epoch-aware (EpochTransport) every storage op of the
// file's handles carries it, so daemons reject stale ops. Epoch zero
// opens unstamped.
func (c *Cluster) CreateFilePlacementCtx(ctx context.Context, name string, phys *part.File, placement [][]int, epoch uint64) (*File, error) {
	if len(placement) < 1 {
		return nil, fmt.Errorf("clusterfile: placement needs at least one replica row")
	}
	if len(placement) > c.cfg.IONodes {
		return nil, fmt.Errorf("clusterfile: %d replica rows over %d I/O nodes", len(placement), c.cfg.IONodes)
	}
	n := phys.Pattern.Len()
	for r, row := range placement {
		if len(row) != n {
			return nil, fmt.Errorf("clusterfile: placement row %d has %d entries for %d subfiles", r, len(row), n)
		}
	}
	return c.createFilePlacement(ctx, name, phys, placement, epoch)
}

func (c *Cluster) createFilePlacement(ctx context.Context, name string, phys *part.File, placement [][]int, epoch uint64) (*File, error) {
	if _, dup := c.files[name]; dup {
		return nil, fmt.Errorf("clusterfile: file %q already exists", name)
	}
	repl := len(placement)
	n := phys.Pattern.Len()
	for _, row := range placement {
		for _, io := range row {
			if io < 0 || io >= c.cfg.IONodes {
				return nil, fmt.Errorf("clusterfile: I/O node %d out of range [0,%d)", io, c.cfg.IONodes)
			}
		}
	}
	f := &File{
		Name:        name,
		Phys:        phys,
		Assign:      placement[0],
		Replication: repl,
		Placement:   placement,
		Epoch:       epoch,
		replicas:    make([][]SubfileHandle, repl),
		mappers:     make([]*core.Mapper, n),
		cluster:     c,
	}
	for i := 0; i < n; i++ {
		m, err := core.NewMapper(phys, i)
		if err != nil {
			return nil, err
		}
		f.mappers[i] = m
	}
	octx, cancel := c.opCtx(ctx)
	defer cancel()
	// The replica tiers open concurrently, so an open costs one round of
	// store-opening calls whatever the replication. A failure reports
	// the lowest failed tier, after every tier that did open is closed.
	et, epochAware := c.transport.(EpochTransport)
	errs := make([]error, repl)
	var wg sync.WaitGroup
	for r := 0; r < repl; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if epochAware && epoch != 0 {
				f.replicas[r], errs[r] = et.OpenEpoch(octx, ReplicaName(name, r), phys, f.Placement[r], epoch)
			} else {
				f.replicas[r], errs[r] = c.transport.Open(octx, ReplicaName(name, r), phys, f.Placement[r])
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, tier := range f.replicas {
				for _, h := range tier {
					h.Close()
				}
			}
			return nil, fmt.Errorf("clusterfile: storage for %q (replica %d): %w", name, r, err)
		}
	}
	c.files[name] = f
	return f, nil
}

// Subfile returns the stored bytes of subfile i (the I/O node's
// on-disk image). It panics on storage errors — use ReadSubfile when
// the subfile lives behind a fallible transport.
func (f *File) Subfile(i int) []byte {
	buf, err := f.ReadSubfile(i)
	if err != nil {
		panic(err)
	}
	return buf
}

// ReadSubfile returns the stored bytes of subfile i, surfacing
// transport errors.
func (f *File) ReadSubfile(i int) ([]byte, error) {
	return f.ReadSubfileCtx(context.Background(), i)
}

// ReadSubfileCtx is ReadSubfile bounded by a context. With replication
// it fails over replica by replica: a transport error against one
// placement moves on to the next (ticking the failover counter), so a
// single dead node is invisible to the caller. Context errors abort
// immediately — a cancelled operation must not masquerade as a node
// fault.
func (f *File) ReadSubfileCtx(ctx context.Context, i int) ([]byte, error) {
	octx, cancel := f.cluster.opCtx(ctx)
	defer cancel()
	var lastErr error
	for r := 0; r < f.Replication; r++ {
		if r > 0 {
			f.cluster.met.failovers.Inc()
		}
		n, err := f.handle(r, i).Len(octx)
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			lastErr = err
			continue
		}
		buf := make([]byte, n)
		if n == 0 {
			return buf, nil
		}
		if err := f.handle(r, i).ReadAt(octx, buf, 0); err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			lastErr = err
			continue
		}
		return buf, nil
	}
	return nil, lastErr
}

// Close releases the subfile stores of every replica tier (syncing
// durable ones).
func (f *File) Close() error {
	var first error
	for _, tier := range f.replicas {
		for _, h := range tier {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// subView is the per-subfile state a view keeps after SetView.
type subView struct {
	subfile int
	inter   *redist.Intersection
	projV   *redist.Projection // stored at the compute node
	projS   *redist.Projection // stored at the subfile's I/O node
	mapper  *core.Mapper       // subfile mapper (I/O node side)
}

// View is a logical partition element set by a compute node on an open
// file.
type View struct {
	file    *File
	node    int // compute node id
	logical *part.File
	elem    int
	mapper  *core.Mapper
	subs    []subView

	// TIntersect is the real wall time spent computing the
	// intersections and projections at view-set time — the paper's
	// t_i.
	TIntersect time.Duration
	// SetViewMsgBytes is the wire volume of the PROJ_S messages sent
	// to the I/O nodes at view-set time.
	SetViewMsgBytes int64
}

// SetView sets view element elem of the logical partition lf on the
// file, for the given compute node (§8.1 "View set"). The
// intersections with every subfile and both projections are computed
// here, once; their cost is recorded as TIntersect.
func (f *File) SetView(node int, lf *part.File, elem int) (*View, error) {
	return f.SetViewCtx(context.Background(), node, lf, elem)
}

// SetViewCtx is SetView bounded by a context: cancellation between
// per-subfile intersections aborts the view set early.
func (f *File) SetViewCtx(ctx context.Context, node int, lf *part.File, elem int) (*View, error) {
	octx, cancelOp := f.cluster.opCtx(ctx)
	defer cancelOp()
	if node < 0 || node >= f.cluster.cfg.ComputeNodes {
		return nil, fmt.Errorf("clusterfile: compute node %d out of range [0,%d)",
			node, f.cluster.cfg.ComputeNodes)
	}
	vm, err := core.NewMapper(lf, elem)
	if err != nil {
		return nil, err
	}
	v := &View{file: f, node: node, logical: lf, elem: elem, mapper: vm}
	// The cached path costs a fingerprint lookup instead of the full
	// intersection; TIntersect then records the amortized cost, which
	// is the point of the cache.
	intersectProject := redist.IntersectProjectElements
	if cache := f.cluster.cfg.ViewCache; cache != nil {
		intersectProject = cache.IntersectProject
	}
	span := f.cluster.span.StartChild("clusterfile.setview")
	defer span.End()
	start := time.Now()
	for s := 0; s < f.Phys.Pattern.Len(); s++ {
		if err := octx.Err(); err != nil {
			return nil, err
		}
		inter, pv, ps, err := intersectProject(lf, elem, f.Phys, s)
		if err != nil {
			return nil, err
		}
		if inter.Empty() {
			continue
		}
		// PROJ_S travels to the subfile's I/O node over the wire
		// (§8.1 "view set") — with replication, to every node of the
		// subfile's placement group, since each replica server scatters
		// independently. The server side operates on the decoded copy,
		// exactly as the real system would.
		wire := redist.EncodeProjection(ps)
		decoded, err := redist.DecodeProjection(wire)
		if err != nil {
			return nil, fmt.Errorf("clusterfile: projection wire round trip: %w", err)
		}
		c := f.cluster
		for r := 0; r < f.Replication; r++ {
			v.SetViewMsgBytes += int64(len(wire))
			if err := c.Net.Send(node, c.ioNet(f.Placement[r][s]), int64(len(wire)), nil); err != nil {
				return nil, err
			}
			c.met.recordNet(int64(len(wire)))
		}
		v.subs = append(v.subs, subView{
			subfile: s, inter: inter, projV: pv, projS: decoded, mapper: f.mappers[s],
		})
	}
	v.TIntersect = time.Since(start)
	f.cluster.met.setViews.Inc()
	f.cluster.met.setViewNs.Observe(v.TIntersect.Nanoseconds())
	return v, nil
}

// Size returns the number of view bytes per pattern repetition.
func (v *View) Size() int64 { return v.mapper.ElementSize() }

// Node returns the compute node that owns the view.
func (v *View) Node() int { return v.node }

// Subfiles returns the indices of the subfiles the view overlaps.
func (v *View) Subfiles() []int {
	out := make([]int, len(v.subs))
	for i, s := range v.subs {
		out[i] = s.subfile
	}
	return out
}
