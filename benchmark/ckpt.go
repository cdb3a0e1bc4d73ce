package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// ckpt.go is the ckpt_restart workload: the paper's checkpoint under
// one partition, restart under another.

// ckptApp is one application (one client goroutine): its cluster
// handle, file, checkpoint views and reference matrix.
type ckptApp struct {
	name    string
	cluster *clusterfile.Cluster
	tr      *rpc.Transport
	file    *clusterfile.File
	writers []*clusterfile.View
	ref     []byte   // the matrix, row-major
	want    [][]byte // ref as seen through each restart view element
	got     [][]byte // restart read buffers
}

type ckptSession struct {
	e    env
	apps []*ckptApp

	rowBlocks, colBlocks, squares *part.File

	writeStats, readStats opStats
	mu                    sync.Mutex
	viewSetUs             []float64
}

func openCkpt(e env) (session, error) {
	s := &ckptSession{
		e:         e,
		rowBlocks: matrixFile(part.RowBlocks),
		colBlocks: matrixFile(part.ColBlocks),
		squares:   squareBlocksFile(),
	}
	for c := 0; c < clients(); c++ {
		if err := s.openApp(c); err != nil {
			s.close(e.ctx)
			return nil, err
		}
	}
	return s, nil
}

func (s *ckptSession) openApp(c int) error {
	cluster, tr, err := s.e.dataCluster(c)
	if err != nil {
		return err
	}
	app := &ckptApp{
		name:    fmt.Sprintf("ckpt-%s-c%d", s.e.tag, c),
		cluster: cluster,
		tr:      tr,
		ref:     s.e.randomBytes(c, 1, matrixBytes),
	}
	s.apps = append(s.apps, app) // from here on close releases it
	if app.file, err = cluster.CreateFileCtx(s.e.ctx, app.name, s.colBlocks, nil); err != nil {
		return err
	}
	for rank := 0; rank < ranks; rank++ {
		v, err := app.file.SetViewCtx(s.e.ctx, rank, s.rowBlocks, rank)
		if err != nil {
			return err
		}
		app.writers = append(app.writers, v)
	}
	// Serial equivalence: a restart reader must see the file as if one
	// writer wrote it, so what it should read is the reference gathered
	// at the offsets its view element enumerates.
	for elem := 0; elem < ranks; elem++ {
		app.want = append(app.want, gatherByOffsets(s.squares, elem, app.ref))
		app.got = append(app.got, make([]byte, len(app.want[elem])))
	}
	return nil
}

// gatherByOffsets is the offset-enumeration oracle: the bytes of data
// at every offset the element's FALLS set lists, in order. data spans
// exactly one pattern period.
func gatherByOffsets(f *part.File, elem int, data []byte) []byte {
	offs := f.Pattern.Element(elem).Set.Offsets()
	out := make([]byte, len(offs))
	for i, x := range offs {
		out[i] = data[x]
	}
	return out
}

func (s *ckptSession) phases() [2]phase {
	return [2]phase{
		{name: "checkpoint", clients: len(s.apps), opBytes: matrixBytes, op: s.checkpointOp},
		{name: "restart", clients: len(s.apps), opBytes: matrixBytes, op: s.restartOp},
	}
}

func (s *ckptSession) checkpointOp(ctx context.Context, c, _ int) (time.Duration, error) {
	app := s.apps[c]
	t0 := time.Now()
	err := checkpoint(ctx, app.cluster, app.writers, app.ref, &s.writeStats)
	return time.Since(t0), err
}

// restartOp is one restart: every rank sets its square-block view (the
// paper's t_i, paid inside the op), reads it, and checks what it read.
func (s *ckptSession) restartOp(ctx context.Context, c, _ int) (time.Duration, error) {
	app := s.apps[c]
	t0 := time.Now()
	ops := make([]*clusterfile.ReadOp, ranks)
	setUs := make([]float64, ranks)
	for rank := 0; rank < ranks; rank++ {
		v, err := app.file.SetViewCtx(ctx, rank, s.squares, rank)
		if err != nil {
			return 0, err
		}
		setUs[rank] = float64(v.TIntersect) / float64(time.Microsecond)
		clear(app.got[rank])
		if ops[rank], err = v.StartReadCtx(ctx, 0, int64(len(app.got[rank]))-1, app.got[rank]); err != nil {
			return 0, err
		}
	}
	app.cluster.RunAll()
	var tm, tsc time.Duration
	for rank, op := range ops {
		if op.Err != nil {
			return 0, fmt.Errorf("rank %d: %w", rank, op.Err)
		}
		if !bytes.Equal(app.got[rank], app.want[rank]) {
			return 0, fmt.Errorf("%w: rank %d read bytes that differ from the reference seen through its view", errMismatch, rank)
		}
		tm += op.Stats.TMap
		tsc += op.Stats.TScatter
	}
	d := time.Since(t0)
	s.readStats.addOp(tm, 0, tsc)
	s.mu.Lock()
	s.viewSetUs = append(s.viewSetUs, setUs...)
	s.mu.Unlock()
	return d, nil
}

// verify checks every daemon's on-disk subfile, replicas included,
// against redist.SplitFile of the reference.
func (s *ckptSession) verify(context.Context) error {
	for _, app := range s.apps {
		want := redist.SplitFile(s.colBlocks, app.ref)
		for r, row := range app.file.Placement {
			for sub, node := range row {
				path := filepath.Join(s.e.topo.dataDir(node),
					fmt.Sprintf("%s.subfile%02d", clusterfile.ReplicaName(app.name, r), sub))
				got, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want[sub]) {
					return fmt.Errorf("%s differs from the reference subfile %d", path, sub)
				}
			}
		}
	}
	return nil
}

func (s *ckptSession) named(a, b *phaseResult) []namedValue {
	return dataNamed(a, b, matrixBytes, matrixBytes)
}

func (s *ckptSession) layer(_, _ *phaseResult) map[string]float64 {
	wm, wg, _ := s.writeStats.perOpUs()
	rm, _, rsc := s.readStats.perOpUs()
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]float64{
		"redist.viewset_us":        median(s.viewSetUs),
		"clusterfile.t_map_us":     (wm + rm) / 2,
		"clusterfile.t_gather_us":  wg,
		"clusterfile.t_scatter_us": rsc,
	}
}

func (s *ckptSession) liveBytes() int64 { return int64(len(s.apps)) * matrixBytes }

func (s *ckptSession) close(ctx context.Context) error {
	var first error
	for _, app := range s.apps {
		// A removing close syncs, closes and deletes the stores of every
		// replica tier, so the next session finds empty daemons.
		if err := app.tr.RemoveStore(ctx, app.name); err != nil && first == nil {
			first = err
		}
		if err := app.tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
