package meta

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/rpc"
)

// defaultRebalanceWorkers bounds concurrent per-file rebalances in
// RebalanceAll when Options.RebalanceWorkers is zero. Each file's move
// is independent (its own fence, union cluster, and CAS commit), so
// a small pool overlaps transfer time without flooding the daemons.
const defaultRebalanceWorkers = 4

// rebalance.go drives online placement changes as paper
// redistributions. A file laid out over its old node set is one
// distribution MAP_old; the placement the current membership implies
// is another, MAP_new. Moving the bytes is exactly the paper's
// redistribution MAP_new ∘ MAP⁻¹_old, so the driver reuses the
// existing stage-then-commit machinery over a union cluster spanning
// both node sets:
//
//  1. fence the old store at its epoch — writes at the old epoch are
//     rejected with ErrStalePlacement, reads keep flowing;
//  2. gather/scatter the bytes into a fresh per-epoch store on the
//     target nodes (staged, then committed atomically per node);
//  3. CAS-commit the new placement map at the metadata service — the
//     one point where the file flips epochs;
//  4. ratchet the old store to the new epoch and unfence — clients
//     still holding the old map now get ErrStalePlacement on any
//     access and refetch.
//
// A crash before step 3 leaves the committed map untouched (the new
// store is garbage, the old one is merely fenced and recoverable); a
// crash after step 3 leaves stale clients to refetch on first error.

// RebalanceResult reports one file's rebalance.
type RebalanceResult struct {
	// File is the committed placement map (nil when Moved is false).
	File *rpc.MetaFile
	// Moved is false when the placement already matched the active
	// membership and nothing happened.
	Moved bool
	// FromEpoch/ToEpoch bracket the flip.
	FromEpoch, ToEpoch uint64
	// FromNodes/ToNodes are the old and new placement node sets.
	FromNodes, ToNodes []string
	// BytesMoved and Messages count the inter-node redistribution
	// traffic; Subfiles is the new subfile count.
	BytesMoved int64
	Messages   int
	Subfiles   int
	// Wall is the end-to-end driver time.
	Wall time.Duration
}

// Rebalance moves one file onto the current active membership. It is
// a no-op (Moved=false) when the placement already matches. Reads are
// served from the old epoch for the whole move; the commit is a CAS
// on the file's epoch, so concurrent rebalances of one file cannot
// both win.
func (fs *FS) Rebalance(ctx context.Context, name string) (*RebalanceResult, error) {
	start := time.Now()
	mf, err := fs.md.MetaOpen(ctx, name)
	if err != nil {
		return nil, err
	}
	target, err := fs.activeNodes(ctx)
	if err != nil {
		return nil, err
	}
	if sameNodes(mf.Nodes, target) {
		return &RebalanceResult{Moved: false, FromEpoch: mf.Epoch, ToEpoch: mf.Epoch,
			FromNodes: mf.Nodes, ToNodes: target}, nil
	}
	if len(target) == 0 {
		return nil, errors.New("meta: no active nodes to rebalance onto")
	}
	if mf.Replication > len(target) {
		return nil, fmt.Errorf("meta: %q needs %d nodes for replication, only %d active",
			name, mf.Replication, len(target))
	}

	var span interface{ Fail() } = noSpan
	if tr := fs.opts.Tracer; tr != nil {
		s := tr.StartOp("rebalance")
		defer tr.FinishOp(s)
		span = s
	}

	res, err := fs.rebalanceOnce(ctx, mf, target)
	if err != nil {
		span.Fail()
		return nil, err
	}
	res.Wall = time.Since(start)
	if fs.metRebalances != nil {
		fs.metRebalances.Inc()
		fs.metRebalanced.Add(res.BytesMoved)
	}
	if fs.opts.Log != nil {
		fs.opts.Log.Info("rebalance", "file", name,
			"from_epoch", res.FromEpoch, "to_epoch", res.ToEpoch,
			"from_nodes", len(res.FromNodes), "to_nodes", len(res.ToNodes),
			"bytes_moved", res.BytesMoved, "wall", res.Wall)
	}
	return res, nil
}

// rebalanceOnce runs the fence → redistribute → CAS-commit → unfence
// sequence for one placement change.
func (fs *FS) rebalanceOnce(ctx context.Context, mf *rpc.MetaFile, target []string) (*RebalanceResult, error) {
	union, index := unionNodes(mf.Nodes, target)
	tr := fs.transport(union)
	cluster, err := clusterfile.New(fs.clusterConfig(len(union), tr))
	if err != nil {
		return nil, err
	}

	newEpoch := mf.Epoch + 1
	// Under a replicated metadata group every epoch minted in leader
	// term T must clear the floor T<<epochTermShift: the daemons'
	// epoch ratchet then fences a deposed leader's driver (staging at a
	// lower epoch) out of the data path with no daemon-side changes.
	// The commit re-validates against the floor, so a term that moves
	// mid-rebalance fails the CAS instead of committing stale.
	if st, err := fs.md.MetaStatus(ctx); err == nil {
		if floor := st.Term << epochTermShift; newEpoch < floor {
			newEpoch = floor
		}
	}
	newStore := fmt.Sprintf("%s@%d", mf.Name, newEpoch)
	newAssign := make([]int, len(target))
	for i := range newAssign {
		newAssign[i] = i
	}
	newMF := &rpc.MetaFile{
		Name:        mf.Name,
		StripeBytes: mf.StripeBytes,
		Replication: mf.Replication,
		Epoch:       newEpoch,
		StoreName:   newStore,
		Nodes:       target,
		Assign:      newAssign,
	}
	newPhys, err := stripePattern(len(target), mf.StripeBytes)
	if err != nil {
		return nil, err
	}
	newRows := unionRows(newMF, index)

	// Fence the old store at its current epoch: in-flight and new
	// writes stamped with the old epoch bounce with ErrStalePlacement
	// from here to the commit; epoch-matched reads keep flowing.
	if err := tr.SetEpoch(ctx, mf.StoreName, mf.Epoch, true); err != nil {
		return nil, fmt.Errorf("meta: fencing %q at epoch %d: %w", mf.StoreName, mf.Epoch, err)
	}
	unfenceOld := func(epoch uint64) {
		// Best-effort: a node that misses the unfence keeps answering
		// stale, which clients already handle by refetching.
		_ = tr.SetEpoch(ctx, mf.StoreName, epoch, false)
	}

	res := &RebalanceResult{
		File: newMF, Moved: true,
		FromEpoch: mf.Epoch, ToEpoch: newEpoch,
		FromNodes: mf.Nodes, ToNodes: target,
		Subfiles: len(target),
	}

	if mf.Length > 0 {
		oldPhys, err := stripePattern(len(mf.Assign), mf.StripeBytes)
		if err != nil {
			unfenceOld(mf.Epoch)
			return nil, err
		}
		// The driver opens the old store UNSTAMPED (epoch 0): the fence
		// must reject epoch-stamped client writes, but the copy's own
		// source-side operations — sparse grows so holes gather as
		// zeroes, then the gathers themselves — are the rebalance, and
		// unstamped requests pass the epoch check by design.
		oldFile, err := cluster.CreateFilePlacementCtx(ctx, mf.StoreName, oldPhys,
			remapRows(placementRows(mf), mf.Nodes, index), 0)
		if err != nil {
			unfenceOld(mf.Epoch)
			return nil, fmt.Errorf("meta: opening %q for rebalance: %w", mf.StoreName, err)
		}
		_, op, err := cluster.StartRedistributePlacementCtx(ctx, oldFile, newStore,
			newPhys, newRows, newEpoch, mf.Length)
		if err != nil {
			unfenceOld(mf.Epoch)
			return nil, fmt.Errorf("meta: starting redistribution: %w", err)
		}
		cluster.RunAll()
		if op.Err != nil {
			unfenceOld(mf.Epoch)
			return nil, fmt.Errorf("meta: redistributing %q: %w", mf.Name, op.Err)
		}
		res.BytesMoved = op.Stats.Bytes
		res.Messages = op.Stats.Messages
	} else {
		// Nothing to copy — still materialise the (empty) new store so
		// the first post-flip open finds it at the new epoch.
		if _, err := cluster.CreateFilePlacementCtx(ctx, newStore, newPhys, newRows, newEpoch); err != nil {
			unfenceOld(mf.Epoch)
			return nil, fmt.Errorf("meta: creating %q: %w", newStore, err)
		}
	}

	committed, err := fs.md.MetaCommit(ctx, &rpc.MetaCommitReq{
		Name:      mf.Name,
		OldEpoch:  mf.Epoch,
		NewEpoch:  newEpoch,
		StoreName: newStore,
		Nodes:     target,
		Assign:    newAssign,
	})
	if err != nil {
		// CAS lost (or the service is gone): the committed map still
		// points at the old store, so restore it to service.
		unfenceOld(mf.Epoch)
		return nil, fmt.Errorf("meta: committing epoch %d for %q: %w", newEpoch, mf.Name, err)
	}
	res.File = committed
	res.ToEpoch = committed.Epoch

	// Ratchet the old store past the flip and unfence: lingering
	// old-epoch clients now get ErrStalePlacement on reads and writes
	// alike, refetch the map, and land on the new store.
	unfenceOld(committed.Epoch)

	// GC the superseded generation: the committed map points at the
	// new store, so the old name@epoch stores (replicas included) on
	// the old placement are dead weight — close them and delete their
	// backing data. Best-effort by design: a node that misses the
	// sweep keeps an orphaned store whose stale readers see
	// unknown-file and refetch, and the next rebalance of the file
	// sweeps again.
	if err := tr.RemoveStore(ctx, mf.StoreName); err != nil {
		if fs.opts.Log != nil {
			fs.opts.Log.Warn("rebalance gc", "file", mf.Name, "store", mf.StoreName, "err", err)
		}
	} else {
		if fs.metGC != nil {
			fs.metGC.Inc()
		}
		if fs.opts.Log != nil {
			fs.opts.Log.Info("rebalance gc", "file", mf.Name, "store", mf.StoreName,
				"nodes", len(mf.Nodes))
		}
	}
	return res, nil
}

// RebalanceOutcome is one file's result from a namespace-wide
// rebalance: either a result or the error that stopped that file.
// Each file's move is all-or-nothing on its own (fence → copy → CAS →
// unfence), so one file failing leaves every other file either moved
// or untouched — never half-moved.
type RebalanceOutcome struct {
	Name   string
	Result *RebalanceResult // nil when Err is set
	Err    error
}

// Failed counts the outcomes that errored.
func Failed(outcomes []*RebalanceOutcome) int {
	n := 0
	for _, o := range outcomes {
		if o.Err != nil {
			n++
		}
	}
	return n
}

// RebalanceAll rebalances every file in the namespace onto the current
// active membership through a bounded worker pool. It does not stop at
// the first failure: every file is attempted and the outcomes come
// back in name order, failures attached to the file they belong to.
// The returned error is non-nil only when the namespace itself could
// not be listed.
func (fs *FS) RebalanceAll(ctx context.Context) ([]*RebalanceOutcome, error) {
	files, err := fs.md.MetaList(ctx)
	if err != nil {
		return nil, err
	}
	workers := fs.opts.RebalanceWorkers
	if workers <= 0 {
		workers = defaultRebalanceWorkers
	}
	if workers > len(files) {
		workers = len(files)
	}
	outcomes := make([]*RebalanceOutcome, len(files))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, mf := range files {
		i, name := i, mf.Name
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			res, err := fs.Rebalance(ctx, name)
			if err != nil {
				err = fmt.Errorf("meta: rebalancing %q: %w", name, err)
			}
			outcomes[i] = &RebalanceOutcome{Name: name, Result: res, Err: err}
		}()
	}
	wg.Wait()
	return outcomes, nil
}

// AddNode registers addr as an active data node and rebalances the
// namespace onto the grown membership.
func (fs *FS) AddNode(ctx context.Context, addr string) ([]*RebalanceOutcome, error) {
	if _, err := fs.md.MetaNodeSet(ctx, addr, rpc.NodeActive); err != nil {
		return nil, err
	}
	return fs.RebalanceAll(ctx)
}

// DrainNode marks addr draining — excluded from new placements — and
// rebalances every file off it.
func (fs *FS) DrainNode(ctx context.Context, addr string) ([]*RebalanceOutcome, error) {
	if _, err := fs.md.MetaNodeSet(ctx, addr, rpc.NodeDraining); err != nil {
		return nil, err
	}
	return fs.RebalanceAll(ctx)
}

// Decommission removes a drained node. The service refuses unless the
// node is draining and no file's placement still references it.
func (fs *FS) Decommission(ctx context.Context, addr string) error {
	_, err := fs.md.MetaNodeSet(ctx, addr, rpc.NodeRemoved)
	return err
}

// activeNodes returns the membership's active node addresses in
// registration order.
func (fs *FS) activeNodes(ctx context.Context) ([]string, error) {
	nodes, err := fs.md.MetaNodes(ctx)
	if err != nil {
		return nil, err
	}
	var active []string
	for _, n := range nodes {
		if n.State == rpc.NodeActive {
			active = append(active, n.Addr)
		}
	}
	return active, nil
}

func sameNodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unionNodes merges old and new node sets preserving first-seen order
// and returns the address → union-index map the placement rows need.
func unionNodes(old, next []string) ([]string, map[string]int) {
	index := make(map[string]int, len(old)+len(next))
	var union []string
	for _, set := range [][]string{old, next} {
		for _, addr := range set {
			if _, ok := index[addr]; !ok {
				index[addr] = len(union)
				union = append(union, addr)
			}
		}
	}
	return union, index
}

// unionRows expands mf's placement into rows of union-cluster indices.
func unionRows(mf *rpc.MetaFile, index map[string]int) [][]int {
	return remapRows(placementRows(mf), mf.Nodes, index)
}

// remapRows translates rows of placement-local node indices into
// union-cluster indices.
func remapRows(rows [][]int, nodes []string, index map[string]int) [][]int {
	out := make([][]int, len(rows))
	for r, row := range rows {
		out[r] = make([]int, len(row))
		for s, local := range row {
			out[r][s] = index[nodes[local]]
		}
	}
	return out
}

// noSpan is the nil-tracer stand-in so the driver can Fail()
// unconditionally.
var noSpan = &nilSpan{}

type nilSpan struct{}

func (*nilSpan) Fail() {}
