package clusterfile

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parafile/internal/part"
	"parafile/internal/redist"
)

// redistribute.go implements on-the-fly physical re-partitioning of a
// stored file — §3: "using the redistribution algorithm it is possible
// to implement disk redistribution on the fly, like in Panda, in order
// to better suit the layout to a certain access pattern".
//
// The bytes move in whole-subfile windows (DESIGN.md §8): each source
// subfile's window [0, max srcHi] is read with one contiguous ReadAt,
// the compiled plan's copy runs move its transfers into zero-filled
// destination-window images in memory — where a segment costs a copy,
// not a syscall or a round trip — and at the commit point each
// destination window is written with one contiguous WriteAt per
// replica. MAP_S is monotone, so the transfers tile every window
// without gaps: the contiguous I/O moves exactly the transfers' bytes.
// The virtual-time cost model stays per transfer, as if each had been
// gathered, sent and scattered on its own.
//
// Every source window is read concurrently from the start, and every
// commit WriteAt is issued at once at the commit point; kernel
// callbacks apply the windows and settle the commits in plan order.
// Peak memory is therefore at most the source windows plus the
// destination images: two times the redistributed length.
//
// Redistribution is all-or-nothing: the destination images ARE the
// staging, written into the new subfiles only once every source window
// was read and every transfer has landed. Any failure or cancellation
// before that commit point discards the images, leaving the new file's
// subfiles untouched (still empty).

// ErrRedistAborted marks destination work discarded because the
// redistribution aborted before its commit point.
var ErrRedistAborted = errors.New("clusterfile: redistribute aborted before commit")

// RedistStats reports a cluster redistribution.
type RedistStats struct {
	// TNet is the virtual time from the first transfer send until the
	// last scatter completed (or the abort was sealed).
	TNet int64
	// Messages and Bytes count the inter-I/O-node traffic.
	Messages int
	Bytes    int64
	// GatherReal / ScatterReal are the real wall times of the data
	// movement on the host.
	GatherReal, ScatterReal time.Duration
}

// stagedXfer is one arrived transfer waiting for the operation's
// commit point; its bytes already sit in its destination window's
// image. key names the transfer's quorum group: each transfer needs
// WriteQuorum replica commits on the destination file. (Keys are per
// transfer, not per destination subfile — several transfers land in
// one subfile, and each must meet quorum on its own.)
type stagedXfer struct {
	key     string
	dstSegs int64
	bytes   int64
}

// dstWindow is the staging of one destination subfile: the zero-filled
// image of its window [0, max dstHi] (nil while no transfer has been
// applied to it) and the transfers that have arrived for it.
type dstWindow struct {
	img   []byte
	xfers []stagedXfer
}

// RedistOp is an in-flight cluster redistribution.
type RedistOp struct {
	collective
	Stats   RedistStats
	nf      *File
	wins    []dstWindow // by destination subfile
	aborted bool
	sealed  bool
}

// Done reports whether the redistribution has settled (committed or
// aborted).
func (op *RedistOp) Done() bool { return op.sealed }

// doomed reports whether the operation can no longer commit.
func (op *RedistOp) doomed() bool { return op.aborted || op.ctx.Err() != nil }

// nodeFailed records an error against one I/O node and dooms the
// operation: the commit point will discard the staging.
func (op *RedistOp) nodeFailed(ioNode int, err error) {
	op.fail(ioNode, err)
	op.aborted = true
}

// arrived retires one transfer; the last one reaches the commit point.
func (op *RedistOp) arrived(c *Cluster) {
	if op.pending--; op.pending == 0 {
		op.settle(c)
	}
}

// settle is the commit point: with every source window read and every
// transfer landed and the operation not doomed, write each destination
// image into its new subfile (every replica placement); otherwise
// discard them all. Only an abort or a cancelled context dooms the
// operation here — individual Failed node outcomes may be source
// failovers the replication layer already absorbed.
func (op *RedistOp) settle(c *Cluster) {
	nf := op.nf
	doomed := op.doomed()
	op.pending = 0
	for d := range op.wins {
		w := &op.wins[d]
		if doomed {
			for r := 0; r < nf.Replication && len(w.xfers) > 0; r++ {
				op.outcomes.cancel(nf.Placement[r][d], ErrRedistAborted)
			}
			c.putMsgBuf(w.img)
			*w = dstWindow{}
		}
		op.pending += len(w.xfers) * nf.Replication
	}
	if op.pending == 0 {
		op.seal(c)
		return
	}
	// Issue every replica write of every window at once, then settle
	// them window by window.
	calls := make([][]*storeCall, len(op.wins))
	for d := range op.wins {
		if img := op.wins[d].img; img != nil {
			calls[d] = make([]*storeCall, nf.Replication)
			for r := range calls[d] {
				h := nf.handle(r, d)
				calls[d][r] = issue(op.ctx, func() error { return h.WriteAt(op.ctx, img, 0) })
			}
		}
	}
	for d := range op.wins {
		if calls[d] != nil {
			op.commitWindow(c, d, calls[d])
		}
	}
}

// replicaCommitFailed records one replica's commit failure. Past the
// commit point a single replica no longer dooms the operation — each
// transfer's quorum group decides — so this never sets op.aborted.
func (op *RedistOp) replicaCommitFailed(c *Cluster, ioNode int, err error) {
	if isCtxErr(err) {
		op.outcomes.cancel(ioNode, err)
	} else {
		op.outcomes.fail(ioNode, err)
	}
	op.commitDone(c)
}

// commitWindow settles one destination image's replica writes — one
// contiguous WriteAt into every replica placement of its subfile, the
// image shared across them (the store copies) and returned to the pool
// once all have returned — against the window's transfers: outcome,
// quorum credit and the destination's storage cost, per transfer.
func (op *RedistOp) commitWindow(c *Cluster, d int, calls []*storeCall) {
	w := op.wins[d]
	op.wins[d] = dstWindow{}
	defer c.putMsgBuf(w.img)
	nf := op.nf
	for r, call := range calls {
		dstION := nf.Placement[r][d]
		err := call.wait()
		op.Stats.ScatterReal += call.real
		c.met.scatterNs.Observe(call.real.Nanoseconds())
		for _, s := range w.xfers {
			if err != nil {
				op.replicaCommitFailed(c, dstION, err)
				continue
			}
			op.outcomes.ok(dstION, s.bytes)
			op.outcomes.groupOK(s.key)
			c.met.scatterBytes.Add(s.bytes)
			c.met.ioBytes(dstION).Add(s.bytes)
			cost := c.Disks[dstION].CacheCost(s.bytes, s.dstSegs)
			c.Disks[dstION].Account(s.bytes, false)
			if err := c.Net.ReceiverBusy(c.ioNet(dstION), cost, func() { op.commitDone(c) }); err != nil {
				op.replicaCommitFailed(c, dstION, err)
			}
		}
	}
}

func (op *RedistOp) commitDone(c *Cluster) {
	if op.pending--; op.pending == 0 {
		op.seal(c)
	}
}

// seal finishes the operation, once. A cancelled context fails it even
// when no node outcome recorded the cancellation.
func (op *RedistOp) seal(c *Cluster) {
	if !op.sealed {
		op.sealed = true
		op.Stats.TNet = op.finish(c, op.ctx.Err())
	}
}

// StartRedistribute creates newName with the given physical partition
// and assignment (nil for round-robin) and moves the first length
// bytes of f's data into it, disk to disk. Drive the kernel (RunAll)
// to completion, then use the returned file.
func (c *Cluster) StartRedistribute(f *File, newName string, newPhys *part.File, newAssign []int, length int64) (*File, *RedistOp, error) {
	return c.StartRedistributeCtx(context.Background(), f, newName, newPhys, newAssign, length)
}

// StartRedistributeCtx is StartRedistribute bounded by a context.
// Cancellation (or the cluster's OpTimeout) before the commit point
// aborts the whole redistribution: staged destination data is
// discarded and the new file's subfiles stay untouched.
func (c *Cluster) StartRedistributeCtx(ctx context.Context, f *File, newName string, newPhys *part.File, newAssign []int, length int64) (*File, *RedistOp, error) {
	return c.startRedistribute(ctx, f, newPhys, length, func(octx context.Context) (*File, error) {
		return c.CreateFileCtx(octx, newName, newPhys, newAssign)
	})
}

// StartRedistributePlacementCtx is StartRedistributeCtx with the new
// file created under explicit placement rows and a placement epoch —
// the online-rebalance shape: the metadata service computes the
// post-rebalance placement, the driver opens the new generation at
// epoch E+1 inside the union cluster of old and new nodes, and the
// paper's redistribution (MAP_new ∘ MAP⁻¹_old) moves the bytes under
// the same stage-then-commit machinery.
func (c *Cluster) StartRedistributePlacementCtx(ctx context.Context, f *File, newName string, newPhys *part.File, placement [][]int, epoch uint64, length int64) (*File, *RedistOp, error) {
	return c.startRedistribute(ctx, f, newPhys, length, func(octx context.Context) (*File, error) {
		return c.CreateFilePlacementCtx(octx, newName, newPhys, placement, epoch)
	})
}

func (c *Cluster) startRedistribute(ctx context.Context, f *File, newPhys *part.File, length int64, create func(context.Context) (*File, error)) (*File, *RedistOp, error) {
	if f == nil {
		return nil, nil, fmt.Errorf("clusterfile: nil file")
	}
	if length < 1 {
		return nil, nil, fmt.Errorf("clusterfile: non-positive length %d", length)
	}
	c.met.redistOps.Inc()
	span := c.span.StartChild("clusterfile.redistribute")
	defer span.End()
	// Repeated redistributions between the same layout pair (the
	// adaptive-layout case §3 motivates) hit the plan cache instead of
	// recompiling.
	var plan *redist.Plan
	var err error
	if cache := c.cfg.PlanCache; cache != nil {
		plan, _, err = cache.GetOrCompile(f.Phys, newPhys)
	} else {
		plan, err = redist.CompilePlan(f.Phys, newPhys,
			redist.CompileOptions{Metrics: c.cfg.Metrics, Trace: span})
	}
	if err != nil {
		return nil, nil, err
	}
	octx, cancel := c.opCtx(ctx)
	octx, osp := c.startOp(octx, "redistribute")
	nf, err := create(octx)
	if err != nil {
		return nil, nil, c.abortStart(cancel, osp, err)
	}
	op := &RedistOp{
		collective: c.newCollective("redistribute", octx, cancel, osp),
		nf:         nf,
		wins:       make([]dstWindow, newPhys.Pattern.Len()),
	}
	// Size the windows: every transfer's element-space bounds, folded
	// per source and per destination subfile.
	var xfers []windowXfer
	srcLen := make([]int64, f.Phys.Pattern.Len())
	dstLen := make([]int64, len(op.wins))
	for i := range plan.Transfers {
		t := &plan.Transfers[i]
		srcHi, dstHi, bytes := t.Windows(plan.Period, length)
		if bytes == 0 {
			continue
		}
		xfers = append(xfers, windowXfer{t: t, index: i, srcHi: srcHi, dstHi: dstHi, bytes: bytes})
		srcLen[t.SrcElem] = max(srcLen[t.SrcElem], srcHi+1)
		dstLen[t.DstElem] = max(dstLen[t.DstElem], dstHi+1)
	}
	// The plan lists transfers in (source, destination) order, so each
	// source subfile's transfers are one run. Every run's window read
	// starts now; a callback at the current virtual time applies each
	// run in plan order once its read has returned.
	for lo := 0; lo < len(xfers); {
		hi := lo + 1
		for hi < len(xfers) && xfers[hi].t.SrcElem == xfers[lo].t.SrcElem {
			hi++
		}
		run := xfers[lo:hi]
		src := c.getMsgBuf(srcLen[run[0].t.SrcElem])
		h := f.handle(0, run[0].t.SrcElem)
		call := issue(octx, func() error { return h.ReadAt(octx, src, 0) })
		op.pending++
		c.K.After(0, func() {
			op.moveSource(c, f, plan, run, src, call, dstLen, length)
			op.arrived(c)
		})
		lo = hi
	}
	if op.pending == 0 {
		op.settle(c)
	}
	return nf, op, nil
}

// windowXfer is one plan transfer that moves bytes within the
// redistributed length, with its element-space window bounds.
type windowXfer struct {
	t            *redist.Transfer
	index        int // position in plan.Transfers: the quorum-group key
	srcHi, dstHi int64
	bytes        int64
}

// moveSource moves one source subfile's transfers into the destination
// images once its window read has returned (real I/O; unwritten holes
// read as zeroes, like any sparse file): the plan's copy runs, in
// memory. A hard read error fails over to the next source replica,
// read inside this callback; only an exhausted placement group — or a
// context error, which never fails over — aborts the redistribution.
// The source image is released before returning. Each transfer is then
// sent on its own in virtual time: gather cost at the source, the
// interconnect, staging on arrival.
func (op *RedistOp) moveSource(c *Cluster, f *File, plan *redist.Plan, xfers []windowXfer, src []byte, call *storeCall, dstLen []int64, length int64) {
	srcElem := xfers[0].t.SrcElem
	srcION := f.Placement[0][srcElem]
	err := call.wait()
	tg := time.Now()
	for r := 1; err != nil && !isCtxErr(err) && !op.doomed() && r < f.Replication; r++ {
		// Tolerated source failure: record it (it surfaces in the
		// Degraded report) without dooming the operation.
		op.outcomes.fail(srcION, err)
		c.met.failovers.Inc()
		srcION = f.Placement[r][srcElem]
		err = f.handle(r, srcElem).ReadAt(op.ctx, src, 0)
	}
	// A doomed operation's images are never committed: skip the copies.
	// Its transfers still go out and report cancelled on arrival.
	for i := 0; i < len(xfers) && err == nil && !op.doomed(); i++ {
		w := &op.wins[xfers[i].t.DstElem]
		if w.img == nil {
			// Pooled capacity arrives dirty; the image must read as a
			// fresh (sparse) subfile wherever no transfer lands.
			w.img = c.getMsgBuf(dstLen[xfers[i].t.DstElem])
			clear(w.img)
		}
		err = plan.ExecuteTransfer(xfers[i].t, src, w.img, length)
	}
	c.putMsgBuf(src)
	if err != nil {
		op.nodeFailed(srcION, err)
		return
	}
	realGather := call.real + time.Since(tg)
	op.Stats.GatherReal += realGather
	c.met.gatherNs.Observe(realGather.Nanoseconds())
	for _, x := range xfers {
		dstElem := x.t.DstElem
		dstION := op.nf.Assign[dstElem]
		st := stagedXfer{
			key:     fmt.Sprintf("xfer/%d", x.index),
			dstSegs: x.t.DstProj.SegmentsIn(0, x.dstHi),
			bytes:   x.bytes,
		}
		op.outcomes.ok(srcION, x.bytes)
		op.outcomes.group(st.key, c.quorum)
		c.met.gatherBytes.Add(x.bytes)
		c.met.ioBytes(srcION).Add(x.bytes)
		op.pending++
		op.Stats.Messages++
		op.Stats.Bytes += x.bytes
		c.met.recordNet(x.bytes)
		c.K.After(c.copyModelNs(x.bytes, x.t.SrcProj.SegmentsIn(0, x.srcHi)), func() {
			// A doomed operation skips the transfer: its payload could
			// never commit.
			if op.doomed() {
				op.outcomes.cancel(dstION, ErrRedistAborted)
				op.arrived(c)
				return
			}
			err := c.Net.Send(c.ioNet(srcION), c.ioNet(dstION), st.bytes, func() {
				// Destination I/O node: the transfer is staged. The
				// write into the new subfiles (every replica) waits for
				// the commit point in settle().
				op.wins[dstElem].xfers = append(op.wins[dstElem].xfers, st)
				op.arrived(c)
			})
			if err != nil {
				op.nodeFailed(dstION, err)
				op.arrived(c)
			}
		})
	}
}
