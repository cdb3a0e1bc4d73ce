package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/meta"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// matrixSide is the side of the byte matrix the view-based workloads
// move: 4096×4096 = 16 MiB, which fits the last-level cache, in 1 KiB
// or 2 KiB non-contiguous runs.
const (
	matrixSide  = 4096
	matrixBytes = matrixSide * matrixSide
	ranks       = 4 // compute nodes of one application
	mib         = 1 << 20
)

// env is what a session is opened with.
type env struct {
	ctx  context.Context
	topo *topology
	seed int64
	// tag keeps the file names of the sessions sharing one topology
	// apart (the untraced and the traced pass).
	tag string
	// lt is the instrumentation of a traced session, nil otherwise.
	lt *layerTrace
}

// clients is the number of closed-loop client goroutines: the ranks'
// collectives of min(2, nproc) applications.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// rng derives a deterministic source for one use within a run: inputs
// depend on the seed and on nothing else.
func (e env) rng(client int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + int64(client)*7919 + salt))
}

func (e env) randomBytes(client int, salt int64, n int) []byte {
	b := make([]byte, n)
	e.rng(client, salt).Read(b) // never fails
	return b
}

// dialMeta opens a metadata-service client the way an application
// would, instrumented when the session is traced.
func (e env) dialMeta(client int) *meta.FS {
	return meta.Dial(e.topo.metaAddr(), meta.Options{
		Client:  e.lt.clientConfig(),
		Metrics: e.lt.registry(),
		Tracer:  e.lt.opTracer(client),
	})
}

// dataCluster builds one application's view of the data daemons: a
// clusterfile.Cluster of 4 compute nodes over rpc.NewTransport to the
// registered daemons, R=2 with write quorum = all.
func (e env) dataCluster(client int) (*clusterfile.Cluster, *rpc.Transport, error) {
	tr, err := rpc.NewTransport(e.topo.dataAddrs(), rpc.Options{
		Client:  e.lt.clientConfig(),
		Metrics: e.lt.registry(),
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := clusterfile.DefaultConfig()
	cfg.ComputeNodes = ranks
	cfg.IONodes = dataDaemons
	cfg.Replication = replication
	cfg.Transport = tr
	cfg.Metrics = e.lt.registry()
	cfg.Tracer = e.lt.opTracer(client)
	c, err := clusterfile.New(cfg)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return c, tr, nil
}

// session is one client-side instance of a workload against a running
// topology: its files, views, connections and generated inputs.
type session interface {
	// phases are the two halves of the timed window.
	phases() [2]phase
	// verify checks the final state of the files after the window.
	verify(ctx context.Context) error
	// named derives the workload's own metric names (MiB/s and so on)
	// from the generic phase results, for the printed report.
	named(a, b *phaseResult) []namedValue
	// layer reports per-layer readings the session took itself, from
	// the program's public per-op stats and from timers around calls.
	layer(a, b *phaseResult) map[string]float64
	// liveBytes is the user data the session's files hold.
	liveBytes() int64
	// close removes the session's files and releases its connections.
	close(ctx context.Context) error
}

// namedValue is one line of the printed report.
type namedValue struct {
	name  string
	value float64
	unit  string
}

// workloadDef names a workload and opens sessions of it.
type workloadDef struct {
	name  string
	why   string
	spare bool // needs the unregistered 4th data daemon
	open  func(e env) (session, error)
}

var workloads = []workloadDef{
	{
		name: "ckpt_restart",
		why:  "4 ranks checkpoint a 16 MiB matrix through row-block views into col-block subfiles, then restart under square blocks: 1 KiB runs stress redist walks and clusterfile gather/scatter",
		open: openCkpt,
	},
	{
		name: "stripe_rw",
		why:  "8 MiB WriteAt/ReadAt on 128 MiB meta.FS files (256 MiB, 4x LLC): contiguous extents stress rpc framing, sockets and the serial NxR fan-out; bypasses gather/scatter work",
		open: openStripe,
	},
	{
		name:  "redistribute",
		why:   "MAP_new o MAP_old^-1 as deployed: col<->row repartition of a 16 MiB matrix over TCP, then add-node/drain-node rebalance of a meta.FS file under fence and CAS commit",
		spare: true,
		open:  openRedistribute,
	},
	{
		name: "meta_ops",
		why:  "4 KiB appends (quorum MetaExtend), overwrites, Stat and Open on 16 files: control plane only (meta log fsync, quorum shipping, leases, unary rpc); data layers idle",
		open: openMetaOps,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// matrixFile is a partition of the matrix as a file pattern.
func matrixFile(mk func(rows, cols, p int64) (*part.Pattern, error)) *part.File {
	pat, err := mk(matrixSide, matrixSide, ranks)
	if err != nil {
		panic(err) // the geometry is a constant of the benchmark
	}
	return part.MustFile(0, pat)
}

func squareBlocksFile() *part.File {
	pat, err := part.SquareBlocks(matrixSide, matrixSide, 2, 2)
	if err != nil {
		panic(err)
	}
	return part.MustFile(0, pat)
}

// checkpoint writes ref through the 4 ranks' views as one collective:
// StartWrite×4 + RunAll. The per-op stats are added to acc.
func checkpoint(ctx context.Context, c *clusterfile.Cluster, views []*clusterfile.View, ref []byte, acc *opStats) error {
	per := int64(len(ref) / len(views))
	ops := make([]*clusterfile.WriteOp, len(views))
	var tm, tg, tsc time.Duration
	for i, v := range views {
		op, err := v.StartWriteCtx(ctx, clusterfile.ToBufferCache, 0, per-1, ref[int64(i)*per:int64(i+1)*per])
		if err != nil {
			return err
		}
		ops[i] = op
	}
	c.RunAll()
	for i, op := range ops {
		if op.Err != nil {
			return fmt.Errorf("rank %d: %w", i, op.Err)
		}
		if op.Degraded != nil {
			return fmt.Errorf("rank %d wrote degraded: %v", i, op.Degraded)
		}
		tm += op.Stats.TMap
		tg += op.Stats.TGather
		tsc += op.Stats.RealScatter
	}
	acc.addOp(tm, tg, tsc)
	return nil
}

// opStats accumulates the paper's t_m, t_g and t_sc from the public
// WriteOp/ReadOp stats of one client's collectives.
type opStats struct {
	mu                    sync.Mutex
	ops                   int
	tMap, tGather, tScatt time.Duration
}

// addOp records one collective's summed rank stats.
func (s *opStats) addOp(m, g, sc time.Duration) {
	s.mu.Lock()
	s.ops++
	s.tMap += m
	s.tGather += g
	s.tScatt += sc
	s.mu.Unlock()
}

// perOpUs returns the mean microseconds per collective.
func (s *opStats) perOpUs() (m, g, sc float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ops == 0 {
		return 0, 0, 0
	}
	n := float64(s.ops) * float64(time.Microsecond)
	return float64(s.tMap) / n, float64(s.tGather) / n, float64(s.tScatt) / n
}

// removeMetaFile deletes a meta.FS file and, since fs.Remove leaves
// the daemons' stores to garbage collection, its stores as well, so a
// later session on the same topology starts from empty daemons.
func removeMetaFile(ctx context.Context, fs *meta.FS, f *meta.File) error {
	p := f.Placement()
	if err := fs.Remove(ctx, p.Name); err != nil {
		return err
	}
	tr, err := rpc.NewTransport(p.Nodes, rpc.Options{})
	if err != nil {
		return err
	}
	defer tr.Close()
	return tr.RemoveStore(ctx, p.StoreName)
}

// dataNamed is the report of a workload whose phases write and read
// fixed-size ops.
func dataNamed(a, b *phaseResult, aBytes, bBytes int64) []namedValue {
	return []namedValue{
		{"write_mbps", a.opsPerSec() * float64(aBytes) / mib, "MiB/s"},
		{"read_mbps", b.opsPerSec() * float64(bBytes) / mib, "MiB/s"},
		{"write_p50_ms", a.p(0.5), "ms"},
		{"read_p50_ms", b.p(0.5), "ms"},
		{"cpu_s_per_gib", cpuPerGiB(a.cpu+b.cpu, int64(a.ops())*aBytes+int64(b.ops())*bBytes), "s/GiB"},
	}
}

func cpuPerGiB(cpu float64, bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	return cpu / (float64(bytes) / (1 << 30))
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / mib / d.Seconds()
}
