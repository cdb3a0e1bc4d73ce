package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/meta"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// redistribute.go is the redistribute workload: the paper's
// MAP_new ∘ MAP⁻¹_old in its two deployed forms. Phase A repartitions
// a stored matrix between col-blocks and row-blocks over TCP; phase B
// rebalances a meta.FS file onto and off a 4th daemon.

// rebalanceFileBytes is small enough that a timed phase of a few
// seconds holds a dozen add+drain cycles; a move's fixed costs (fence,
// store opens, CAS commit, unfence, GC of the old generation) weigh
// accordingly more than they would on a large file.
const rebalanceFileBytes = 16 * mib

// repartApp is one client's repartition state: the current generation
// of its file and the layout it is stored under.
type repartApp struct {
	name    string
	cluster *clusterfile.Cluster
	tr      *rpc.Transport
	ref     []byte
	cur     *clusterfile.File
	gen     int
}

type redistSession struct {
	e       env
	layouts [2]*part.File // col-blocks, row-blocks; generation g is stored under layouts[g%2]
	apps    []*repartApp

	fs          *meta.FS
	rebal       *meta.File
	rebalRef    []byte
	rebalBuf    []byte
	spareActive bool

	mu           sync.Mutex
	moved        int64           // Σ RebalanceResult.BytesMoved
	moveWall     time.Duration   // Σ latency of the moves
	addMs, drnMs []time.Duration // per direction
}

func openRedistribute(e env) (session, error) {
	s := &redistSession{
		e:       e,
		layouts: [2]*part.File{matrixFile(part.ColBlocks), matrixFile(part.RowBlocks)},
	}
	for c := 0; c < clients(); c++ {
		if err := s.openApp(c); err != nil {
			s.close(e.ctx)
			return nil, err
		}
	}
	if err := s.openRebalance(); err != nil {
		s.close(e.ctx)
		return nil, err
	}
	return s, nil
}

// openApp stores the matrix under col-blocks the way ckpt_restart
// does: through the ranks' row-block views.
func (s *redistSession) openApp(c int) error {
	cluster, tr, err := s.e.dataCluster(c)
	if err != nil {
		return err
	}
	app := &repartApp{
		name:    fmt.Sprintf("repart-%s-c%d", s.e.tag, c),
		cluster: cluster,
		tr:      tr,
		ref:     s.e.randomBytes(c, 4, matrixBytes),
	}
	s.apps = append(s.apps, app)
	if app.cur, err = cluster.CreateFileCtx(s.e.ctx, app.genName(), s.layouts[0], nil); err != nil {
		return err
	}
	var views []*clusterfile.View
	for rank := 0; rank < ranks; rank++ {
		v, err := app.cur.SetViewCtx(s.e.ctx, rank, s.layouts[1], rank)
		if err != nil {
			return err
		}
		views = append(views, v)
	}
	return checkpoint(s.e.ctx, cluster, views, app.ref, new(opStats))
}

func (a *repartApp) genName() string { return fmt.Sprintf("%s.g%d", a.name, a.gen) }

func (s *redistSession) openRebalance() error {
	s.fs = s.e.dialMeta(0)
	s.rebalRef = s.e.randomBytes(0, 5, rebalanceFileBytes)
	s.rebalBuf = make([]byte, rebalanceFileBytes)
	var err error
	if s.rebal, err = s.fs.Create(s.e.ctx, "rebal-"+s.e.tag, stripeBytes, replication); err != nil {
		return err
	}
	return s.rebal.WriteAt(s.e.ctx, s.rebalRef, 0)
}

func (s *redistSession) phases() [2]phase {
	return [2]phase{
		{name: "repartition", clients: len(s.apps), opBytes: matrixBytes, op: s.repartitionOp},
		{name: "rebalance", clients: 1, opBytes: 2 * rebalanceFileBytes, op: s.rebalanceOp},
	}
}

// repartitionOp moves the file to the other layout. The plan is
// compiled each time (no PlanCache). The timed part is
// StartRedistribute+RunAll; retiring the superseded generation keeps
// the daemons' stores and fds bounded and is not part of the latency.
func (s *redistSession) repartitionOp(ctx context.Context, c, _ int) (time.Duration, error) {
	app := s.apps[c]
	old := app.genName()
	app.gen++
	t0 := time.Now()
	nf, op, err := app.cluster.StartRedistributeCtx(ctx, app.cur, app.genName(), s.layouts[app.gen%2], nil, matrixBytes)
	if err != nil {
		return 0, err
	}
	app.cluster.RunAll()
	d := time.Since(t0)
	if op.Err != nil {
		return 0, op.Err
	}
	if op.Degraded != nil {
		return 0, fmt.Errorf("redistributed degraded: %v", op.Degraded)
	}
	app.cur = nf
	return d, app.tr.RemoveStore(ctx, old)
}

// rebalanceOp is one elastic cycle: add the spare daemon and rebalance
// onto it, then drain it again, which returns the file to the three
// registered daemons. The file must read back identical after each
// move; the read-backs are not part of the latency.
func (s *redistSession) rebalanceOp(ctx context.Context, _, _ int) (time.Duration, error) {
	add, err := s.move(ctx, s.fs.AddNode, &s.addMs)
	if err != nil {
		return 0, fmt.Errorf("add-node: %w", err)
	}
	s.spareActive = true
	drain, err := s.move(ctx, s.fs.DrainNode, &s.drnMs)
	if err != nil {
		return 0, fmt.Errorf("drain-node: %w", err)
	}
	s.spareActive = false
	return add + drain, nil
}

// move runs one membership change with its rebalance and checks the
// file afterwards. It returns the move's latency.
func (s *redistSession) move(ctx context.Context,
	change func(context.Context, string) ([]*meta.RebalanceOutcome, error), dir *[]time.Duration) (time.Duration, error) {

	t0 := time.Now()
	outcomes, err := change(ctx, s.e.topo.spare.addr)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	var moved int64
	for _, o := range outcomes {
		if o.Err != nil {
			return 0, o.Err
		}
		if !o.Result.Moved {
			return 0, fmt.Errorf("%s was not moved", o.Name)
		}
		moved += o.Result.BytesMoved
	}
	s.mu.Lock()
	s.moved += moved
	s.moveWall += d
	*dir = append(*dir, d)
	s.mu.Unlock()
	if err := s.rebal.ReadAt(ctx, s.rebalBuf, 0); err != nil {
		return 0, err
	}
	if !bytes.Equal(s.rebalBuf, s.rebalRef) {
		return 0, fmt.Errorf("%w: file differs from what was written after the move", errMismatch)
	}
	return d, nil
}

// verify checks the repartitioned subfiles against an in-process
// reference split of the matrix under the current layout.
func (s *redistSession) verify(ctx context.Context) error {
	for _, app := range s.apps {
		phys := s.layouts[app.gen%2]
		want := redist.SplitFile(phys, app.ref)
		for sub := range want {
			got, err := app.cur.ReadSubfileCtx(ctx, sub)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[sub]) {
				return fmt.Errorf("%s subfile %d differs from the in-process reference", app.genName(), sub)
			}
		}
	}
	return nil
}

func (s *redistSession) named(a, b *phaseResult) []namedValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []namedValue{
		{"repartition_mbps", a.opsPerSec() * matrixBytes / mib, "MiB/s"},
		{"rebalance_mbps", mbps(s.moved, s.moveWall), "MiB/s"},
		{"cpu_s_per_gib", cpuPerGiB(a.cpu+b.cpu, int64(a.ops())*matrixBytes+s.moved), "s/GiB"},
	}
}

func (s *redistSession) layer(_, _ *phaseResult) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]float64{
		"meta.rebalance_add_ms":   quantileMs(s.addMs, 0.5),
		"meta.rebalance_drain_ms": quantileMs(s.drnMs, 0.5),
	}
}

func (s *redistSession) liveBytes() int64 {
	return int64(len(s.apps))*matrixBytes + rebalanceFileBytes
}

func (s *redistSession) close(ctx context.Context) error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, app := range s.apps {
		keep(app.tr.RemoveStore(ctx, app.genName()))
		keep(app.tr.Close())
	}
	if s.rebal != nil {
		keep(removeMetaFile(ctx, s.fs, s.rebal))
		keep(s.rebal.Close())
	}
	if s.fs != nil {
		if s.spareActive {
			// With the namespace empty this only flips the membership
			// back, so the next session again places files on 3 daemons.
			_, err := s.fs.DrainNode(ctx, s.e.topo.spare.addr)
			keep(err)
		}
		keep(s.fs.Close())
	}
	return first
}
