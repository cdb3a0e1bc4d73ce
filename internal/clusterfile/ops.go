package clusterfile

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/redist"
	"parafile/internal/sim"
)

// ops.go implements the §8.1 write protocol and its reverse-symmetric
// read. The algorithms and the data movement are executed for real on
// the in-memory subfiles; durations for network, disk and era CPU
// copying come from the cost models, composed on the cluster's
// discrete-event kernel.
//
// The storage calls overlap, as the paper's I/O nodes serve one
// request in parallel: an operation issues every call of its fan-out
// on its own goroutine when it starts (storeCall), and the kernel
// callback that used to perform a call now only waits for its result.
// The callbacks still run in virtual-time order, so outcomes, quorum
// groups, statistics and virtual time are accounted exactly as if the
// calls had run one after another.
//
// Every operation runs under an operation context derived from the
// caller's (StartWriteCtx/StartReadCtx) plus the cluster's OpTimeout.
// The context reaches every SubfileHandle call, so a remote transport
// bounds its RPCs by it; cancellation mid-flight turns the remaining
// per-node deliveries into OutcomeCancelled entries of the resulting
// PartialError instead of performing them.

// extremityMsgBytes is the wire size of the (lowS, highS) request of
// §8.1 line 5.
const extremityMsgBytes = 16

// ackMsgBytes is the wire size of a write acknowledgement.
const ackMsgBytes = 8

// ctxOutcome classifies an error against the operation context:
// context errors are cancellations, everything else a hard failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WriteStats is the per-operation breakdown the evaluation reports.
type WriteStats struct {
	// TMap is the real time to map the access interval extremities
	// onto the subfiles (the paper's t_m, lines 3-4).
	TMap time.Duration
	// TGather is the real time spent gathering non-contiguous view
	// data into message buffers (the paper's t_g, line 9).
	TGather time.Duration
	// TNet is the virtual time between sending the first write
	// request and receiving the last acknowledgment (the paper's
	// t_net).
	TNet int64
	// GatherModelNs is the era-calibrated model cost of the gathers,
	// the amount injected into virtual time.
	GatherModelNs int64
	// ScatterModelNs is the total modeled scatter+write time across
	// the I/O nodes this operation touched (the paper's t_sc, per
	// message receive).
	ScatterModelNs int64
	// RealScatter is the real wall time of the scatters executed on
	// the in-memory subfiles.
	RealScatter time.Duration
	// Messages and BytesSent count the data traffic (requests and
	// data, not acks).
	Messages  int
	BytesSent int64
	// ContiguousSends counts subfiles hit through the zero-copy path
	// (line 7).
	ContiguousSends int
	// PerIONodeScatterNs breaks ScatterModelNs down by I/O node.
	PerIONodeScatterNs map[int]int64
}

// storeCall is one storage call running on its own goroutine. Only the
// goroutine writes err and real, before closing done; the kernel
// callback that accounts for the call reads them after wait.
type storeCall struct {
	done chan struct{}
	err  error
	real time.Duration // wall time of the call
}

// issue starts a storage call under the operation context: a context
// that is already done fails the call without running it.
func issue(ctx context.Context, fn func() error) *storeCall {
	sc := &storeCall{done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		if sc.err = ctx.Err(); sc.err != nil {
			return
		}
		ts := time.Now()
		sc.err = fn()
		sc.real = time.Since(ts)
	}()
	return sc
}

// wait blocks until the call has returned and yields its error.
func (sc *storeCall) wait() error {
	<-sc.done
	return sc.err
}

// collective is the in-flight state every collective operation (write,
// read, redistribute) carries. Only kernel callbacks touch it, and the
// event kernel is single-threaded, so plain fields suffice.
type collective struct {
	// Err, once the operation is done, is nil or a *PartialError with the
	// per-I/O-node outcomes (for a redistribution the destination nodes
	// are cancelled: their staged data was discarded, never committed).
	Err error
	// Degraded, when non-nil after completion, lists replica placements
	// that failed while the operation still succeeded: every subfile (or
	// transfer) met its write quorum, or a sibling replica served the
	// read. The named nodes hold stale or unreachable replicas until the
	// file is repaired.
	Degraded *PartialError

	pending  int
	started  int64
	ctx      context.Context
	cancel   context.CancelFunc
	outcomes *outcomeSet
	failFast bool
	span     *obs.Span // distributed-trace root (nil when untraced)
}

// Cancel aborts the operation: work that has not yet run reports
// OutcomeCancelled (a redistribution discards its staging at the commit
// point, leaving the new file untouched). Safe to call at any time.
func (op *collective) Cancel() { op.cancel() }

// fail records an error against one I/O node by class, cancelling
// siblings when the cluster is configured fail-fast. Overload answers
// (admission control shed the request through the client's whole
// retry budget) are a class of their own: nothing executed, nothing
// torn, and the node is healthy — so they never trip fail-fast and
// surface as OutcomeShed rather than OutcomeFailed.
func (op *collective) fail(ioNode int, err error) {
	switch {
	case isCtxErr(err):
		op.outcomes.cancel(ioNode, err)
	case errors.Is(err, qos.ErrOverloaded):
		op.outcomes.shed(ioNode, err)
	default:
		op.outcomes.fail(ioNode, err)
		if op.failFast {
			op.cancel()
		}
	}
}

// finish seals a settled operation — the PartialError (or the degraded
// report) derived from the outcomes, else the given fallback error; the
// op context released, the trace published — and returns its virtual
// duration.
func (op *collective) finish(c *Cluster, fallback error) int64 {
	err, degraded := op.outcomes.finalize()
	if op.Err == nil {
		op.Err = err
	}
	if op.Err == nil {
		op.Err = fallback
	}
	if op.Err == nil && degraded != nil {
		op.Degraded = degraded
		c.met.degradedOps.Inc()
	}
	op.cancel()
	stampTrace(op.Err, op.span)
	c.finishOp(op.span, op.Err)
	return c.K.Now() - op.started
}

// WriteOp is an in-flight write; its Stats are final once the
// cluster's kernel has drained.
type WriteOp struct {
	collective
	Stats WriteStats
	view  *View
}

// sharedBuf refcounts one pooled gather buffer fanned out to R replica
// deliveries: the last delivery returns it to the pool. Deliveries
// release it from kernel callbacks, after their storage call returned,
// so a plain counter suffices.
type sharedBuf struct {
	buf  []byte
	refs int
}

func (b *sharedBuf) release(c *Cluster) {
	if b == nil {
		return
	}
	if b.refs--; b.refs == 0 {
		c.putMsgBuf(b.buf)
	}
}

// Done reports whether all acknowledgments have arrived.
func (op *WriteOp) Done() bool { return op.pending == 0 }

// completeOne retires one per-replica delivery; the last one seals the
// operation.
func (op *WriteOp) completeOne(c *Cluster) {
	if op.pending--; op.pending == 0 {
		op.Stats.TNet = op.finish(c, nil)
	}
}

// nodeFailed retires a delivery that failed against one I/O node.
func (op *WriteOp) nodeFailed(c *Cluster, ioNode int, err error) {
	op.fail(ioNode, err)
	op.completeOne(c)
}

// newCollective starts the shared state of one operation under its
// operation context and trace span.
func (c *Cluster) newCollective(name string, octx context.Context, cancel context.CancelFunc, sp *obs.Span) collective {
	return collective{
		started: c.K.Now(),
		ctx:     octx, cancel: cancel,
		outcomes: newOutcomeSet(name),
		failFast: c.cfg.FailFast,
		span:     sp,
	}
}

// copyModelNs returns the era CPU cost of moving the given bytes in
// the given number of non-contiguous pieces (gathers and scatters).
func (c *Cluster) copyModelNs(bytes, segments int64) int64 {
	if segments < 1 {
		segments = 1
	}
	return (segments-1)*c.cfg.CopySegmentOverheadNs +
		sim.TransferTime(bytes, c.cfg.CopyBandwidthBytesPerSec)
}

// StartWrite begins the §8.1 write of view bytes [lowV, highV] from
// buf at the current virtual time. Call the cluster kernel's Run (or
// RunAll) to drive it to completion.
func (v *View) StartWrite(mode WriteMode, lowV, highV int64, buf []byte) (*WriteOp, error) {
	return v.StartWriteCtx(context.Background(), mode, lowV, highV, buf)
}

// StartWriteCtx is StartWrite bounded by a context: cancelling ctx (or
// exceeding the cluster's OpTimeout) turns deliveries that have not
// yet run into cancelled outcomes of the write's PartialError.
func (v *View) StartWriteCtx(ctx context.Context, mode WriteMode, lowV, highV int64, buf []byte) (*WriteOp, error) {
	if highV < lowV {
		return nil, fmt.Errorf("clusterfile: inverted write interval [%d,%d]", lowV, highV)
	}
	if int64(len(buf)) != highV-lowV+1 {
		return nil, fmt.Errorf("clusterfile: buffer holds %d bytes for interval of %d",
			len(buf), highV-lowV+1)
	}
	c := v.file.cluster
	octx, cancel := c.opCtx(ctx)
	octx, osp := c.startOp(octx, "write")
	op := &WriteOp{view: v, collective: c.newCollective("write", octx, cancel, osp)}
	op.Stats.PerIONodeScatterNs = make(map[int]int64)
	c.met.writeOps.Inc()
	span := c.span.StartChild("clusterfile.write")
	defer span.End()

	type sendPlan struct {
		sub         *subView
		lowS, highS int64
		data        []byte
		extents     int64
		contiguous  bool
		pooled      bool  // data came from the message-buffer pool
		gatherNs    int64 // modeled gather cost (0 for the zero-copy path)
	}
	var plans []sendPlan

	// Lines 1-4: for every subfile the view intersects, map the
	// extremities of the access interval onto the subfile.
	gatherSpan := span.StartChild("map+gather")
	for i := range v.subs {
		sub := &v.subs[i]
		if sub.projV.BytesIn(lowV, highV) == 0 {
			continue
		}
		if err := octx.Err(); err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		tm := time.Now()
		firstV, lastV := windowExtremes(sub.projV, lowV, highV)
		lowS, err := mapThrough(v, sub, firstV)
		if err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		highS, err := mapThrough(v, sub, lastV)
		if err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		op.Stats.TMap += time.Since(tm)

		p := sendPlan{sub: sub, lowS: lowS, highS: highS}
		p.extents = sub.projS.SegmentsIn(lowS, highS)
		// Line 6: when the view projection is contiguous over the
		// whole interval, the user buffer goes out as-is.
		if sub.projV.IsContiguous(lowV, highV) {
			p.contiguous = true
			p.data = buf
			op.Stats.ContiguousSends++
		} else {
			// Line 9: gather the non-contiguous regions into buf2.
			n := sub.projV.BytesIn(lowV, highV)
			segs := sub.projV.SegmentsIn(lowV, highV)
			buf2 := c.getMsgBuf(n)
			p.pooled = true
			tg := time.Now()
			if err := gatherWindow(buf2, buf, sub.projV, lowV, highV); err != nil {
				return nil, c.abortStart(cancel, osp, err)
			}
			real := time.Since(tg)
			op.Stats.TGather += real
			c.met.gatherBytes.Add(n)
			c.met.gatherNs.Observe(real.Nanoseconds())
			p.gatherNs = c.copyModelNs(n, segs)
			op.Stats.GatherModelNs += p.gatherNs
			p.data = buf2
		}
		plans = append(plans, p)
	}
	gatherSpan.End()
	if len(plans) == 0 {
		cancel()
		c.finishOp(osp, nil)
		return op, nil
	}

	// The compute node executes the per-subfile loop sequentially; its
	// local clock advances with the modeled gather costs while the NIC
	// serializes the sends. With replication every subfile's messages
	// fan out to its whole placement group; the gather is paid once and
	// a pooled buffer is shared across the fan-out.
	R := v.file.Replication
	sendSpan := span.StartChild("send")
	cnTime := c.K.Now()
	for i := range plans {
		p := plans[i]
		op.outcomes.group(groupKey(p.sub.subfile), c.quorum)
		// Line 5: send the extremities to every replica's I/O server.
		for r := 0; r < R; r++ {
			netDst := c.ioNet(v.file.Placement[r][p.sub.subfile])
			if err := c.Net.SendAt(cnTime, v.node, netDst, extremityMsgBytes, nil); err != nil {
				return nil, c.abortStart(cancel, osp, err)
			}
			op.Stats.Messages++
			op.Stats.BytesSent += extremityMsgBytes
			c.met.recordNet(extremityMsgBytes)
		}
		cnTime += p.gatherNs
		// Lines 7/10: send the data to each replica server.
		data := p.data
		sub := p.sub
		var sb *sharedBuf
		if p.pooled {
			sb = &sharedBuf{buf: data, refs: R}
		}
		lowS, highS, extents := p.lowS, p.highS, p.extents
		// Line 4 (server): contiguous on both sides — plain write;
		// otherwise line 6 (server): scatter buf into the subfile.
		plain := p.contiguous && sub.projS.IsContiguous(lowS, highS)
		for r := 0; r < R; r++ {
			replica := r
			var call *storeCall
			deliver := func() {
				c.serverWrite(op, v, sub, mode, replica, lowS, highS, extents, sb, call, int64(len(data)))
			}
			if err := c.Net.SendAt(cnTime, v.node, c.ioNet(v.file.Placement[r][sub.subfile]), int64(len(data)), deliver); err != nil {
				return nil, c.abortStart(cancel, osp, err)
			}
			store := v.file.handle(r, sub.subfile)
			call = issue(octx, func() error {
				if plain {
					return store.WriteAt(octx, data, lowS)
				}
				return store.Scatter(octx, sub.projS, lowS, highS, data)
			})
			op.pending++
			op.Stats.Messages++
			op.Stats.BytesSent += int64(len(data))
			c.met.recordNet(int64(len(data)))
		}
	}
	sendSpan.End()
	return op, nil
}

// serverWrite is the I/O server side of §8.1 for one replica: receive
// the data, which the replica's storage call issued at the start of the
// operation writes contiguously or scatters into the subfile store, and
// acknowledge. A call that met a cancelled operation context is a
// cancelled outcome; a hard storage error marks the replica's node
// failed and lets the subfile's quorum group decide the operation's
// fate. A call whose bytes already landed is ok, even if a sibling's
// failure cancelled the operation meanwhile.
func (c *Cluster) serverWrite(op *WriteOp, v *View, sub *subView, mode WriteMode,
	replica int, lowS, highS, extents int64, sb *sharedBuf, call *storeCall, bytes int64) {

	err := call.wait()
	// The store copies on WriteAt, so the pooled message buffer shared
	// across the replica fan-out is free for reuse once the last
	// delivery's call returned. The contiguous path carries the caller's
	// buffer (sb == nil).
	sb.release(c)
	f := v.file
	ioNode := f.Placement[replica][sub.subfile]
	if err != nil {
		op.nodeFailed(c, ioNode, err)
		return
	}
	op.Stats.RealScatter += call.real
	op.outcomes.ok(ioNode, bytes)
	op.outcomes.groupOK(groupKey(sub.subfile))
	c.met.scatterBytes.Add(bytes)
	c.met.scatterNs.Observe(call.real.Nanoseconds())
	c.met.ioBytes(ioNode).Add(bytes)
	c.tracer.Recordf(c.K.Now(), fmt.Sprintf("ion%d", ioNode),
		"scatter %d B into subfile %d [%d,%d] (%s)", bytes, sub.subfile, lowS, highS, mode)

	// The storage model charges the scatter as the buffer-cache write
	// (the paper's implementation copies once even in the contiguous
	// case, which is why its numbers converge for large writes). The
	// processing occupies the I/O node's receive path: the era server
	// was single-threaded, so the next incoming message waits for the
	// previous write to finish.
	disk := c.Disks[ioNode]
	cost := disk.CacheCost(bytes, extents)
	if mode == ToDisk {
		cost += disk.DiskCost(bytes, extents)
	}
	disk.Account(bytes, mode == ToDisk)
	op.Stats.ScatterModelNs += cost
	op.Stats.PerIONodeScatterNs[ioNode] += cost
	err = c.Net.ReceiverBusy(c.ioNet(ioNode), cost, func() {
		// Acknowledge back to the compute node.
		c.Net.Send(c.ioNet(ioNode), v.node, ackMsgBytes, func() {
			op.completeOne(c)
		})
	})
	if err != nil {
		op.nodeFailed(c, ioNode, err)
	}
}

// ReadStats mirrors WriteStats for the reverse-symmetric read path.
type ReadStats struct {
	TMap       time.Duration
	TScatter   time.Duration // real: scatter into the user buffer
	TNet       int64
	Messages   int
	BytesMoved int64
}

// ReadOp is an in-flight read.
type ReadOp struct {
	collective
	Stats ReadStats
}

// Done reports whether all data has arrived.
func (op *ReadOp) Done() bool { return op.pending == 0 }

func (op *ReadOp) completeOne(c *Cluster) {
	if op.pending--; op.pending == 0 {
		op.Stats.TNet = op.finish(c, nil)
	}
}

func (op *ReadOp) nodeFailed(c *Cluster, ioNode int, err error) {
	op.fail(ioNode, err)
	op.completeOne(c)
}

// StartRead begins the reverse-symmetric read of view bytes
// [lowV, highV] into buf.
func (v *View) StartRead(lowV, highV int64, buf []byte) (*ReadOp, error) {
	return v.StartReadCtx(context.Background(), lowV, highV, buf)
}

// StartReadCtx is StartRead bounded by a context.
func (v *View) StartReadCtx(ctx context.Context, lowV, highV int64, buf []byte) (*ReadOp, error) {
	if highV < lowV {
		return nil, fmt.Errorf("clusterfile: inverted read interval [%d,%d]", lowV, highV)
	}
	if int64(len(buf)) != highV-lowV+1 {
		return nil, fmt.Errorf("clusterfile: buffer holds %d bytes for interval of %d",
			len(buf), highV-lowV+1)
	}
	c := v.file.cluster
	octx, cancel := c.opCtx(ctx)
	octx, osp := c.startOp(octx, "read")
	op := &ReadOp{collective: c.newCollective("read", octx, cancel, osp)}
	c.met.readOps.Inc()
	span := c.span.StartChild("clusterfile.read")
	defer span.End()
	for i := range v.subs {
		sub := &v.subs[i]
		if sub.projV.BytesIn(lowV, highV) == 0 {
			continue
		}
		if err := octx.Err(); err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		tm := time.Now()
		firstV, lastV := windowExtremes(sub.projV, lowV, highV)
		lowS, err := mapThrough(v, sub, firstV)
		if err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		highS, err := mapThrough(v, sub, lastV)
		if err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		op.Stats.TMap += time.Since(tm)

		// A read needs exactly one replica to answer; the primary is
		// asked first and serverRead fails over down the placement group.
		op.outcomes.group(groupKey(sub.subfile), 1)
		netDst := c.ioNet(v.file.Placement[0][sub.subfile])
		op.pending++
		lowS2, highS2 := lowS, highS
		// Request to the I/O server.
		var g *gatherCall
		err = c.Net.Send(v.node, netDst, extremityMsgBytes, func() {
			c.serverRead(op, v, sub, 0, lowS2, highS2, g, buf, lowV, highV)
		})
		if err != nil {
			return nil, c.abortStart(cancel, osp, err)
		}
		g = c.issueGather(op, v.file, sub, 0, lowS, highS)
		op.Stats.Messages++
		c.met.recordNet(extremityMsgBytes)
	}
	if op.pending == 0 {
		cancel()
		c.finishOp(osp, nil)
	}
	return op, nil
}

// gatherCall is one replica's Gather in flight, with the pooled
// message buffer it packs into.
type gatherCall struct {
	*storeCall
	data []byte
}

// issueGather starts the Gather of a subfile window from one replica.
func (c *Cluster) issueGather(op *ReadOp, f *File, sub *subView, replica int, lowS, highS int64) *gatherCall {
	data := c.getMsgBuf(sub.projS.BytesIn(lowS, highS))
	h := f.handle(replica, sub.subfile)
	return &gatherCall{data: data, storeCall: issue(op.ctx, func() error {
		return h.Gather(op.ctx, sub.projS, lowS, highS, data)
	})}
}

// serverRead ships one replica's gathered subfile bytes back; the
// compute node scatters them into the user buffer on arrival. A hard
// storage error against the replica fails over: the compute node
// re-sends the extremity request to the next replica in the placement
// group, whose Gather is issued only then, so a dead node costs a
// failover round-trip instead of the read. Context cancellation never
// fails over.
func (c *Cluster) serverRead(op *ReadOp, v *View, sub *subView, replica int,
	lowS, highS int64, g *gatherCall, buf []byte, lowV, highV int64) {

	f := v.file
	ioNode := f.Placement[replica][sub.subfile]
	data := g.data
	// fail retires this replica's attempt: mark the node, and either
	// re-issue the request against the next replica or — with the
	// placement group exhausted — fail the delivery for real.
	fail := func(err error) {
		c.putMsgBuf(data)
		if !isCtxErr(err) && replica+1 < f.Replication {
			// A saturated replica is shed, not failed — either way the
			// read fails over to the next replica in the group.
			if errors.Is(err, qos.ErrOverloaded) {
				op.outcomes.shed(ioNode, err)
			} else {
				op.outcomes.fail(ioNode, err)
			}
			c.met.failovers.Inc()
			next := f.Placement[replica+1][sub.subfile]
			op.Stats.Messages++
			c.met.recordNet(extremityMsgBytes)
			var ng *gatherCall
			if e := c.Net.Send(v.node, c.ioNet(next), extremityMsgBytes, func() {
				c.serverRead(op, v, sub, replica+1, lowS, highS, ng, buf, lowV, highV)
			}); e == nil {
				ng = c.issueGather(op, f, sub, replica+1, lowS, highS)
				return
			}
		}
		op.nodeFailed(c, ioNode, err)
	}

	if err := g.wait(); err != nil {
		fail(err)
		return
	}
	n := int64(len(data))
	c.met.gatherBytes.Add(n)
	c.met.gatherNs.Observe(g.real.Nanoseconds())
	c.met.ioBytes(ioNode).Add(n)
	// The server's gather is CPU work before the send.
	c.K.After(c.copyModelNs(n, sub.projS.SegmentsIn(lowS, highS)), func() {
		c.met.recordNet(n)
		err := c.Net.Send(c.ioNet(ioNode), v.node, n, func() {
			// The scatter copies into the user buffer, after which the
			// message buffer is free for reuse.
			defer c.putMsgBuf(data)
			if err := op.ctx.Err(); err != nil {
				op.outcomes.cancel(ioNode, err)
				op.completeOne(c)
				return
			}
			ts := time.Now()
			if err := scatterWindow(buf, data, sub.projV, lowV, highV); err != nil {
				// The failure is on the compute-node side; another
				// replica's bytes would fail identically.
				op.nodeFailed(c, ioNode, err)
				return
			}
			real := time.Since(ts)
			op.Stats.TScatter += real
			op.outcomes.ok(ioNode, n)
			op.outcomes.groupOK(groupKey(sub.subfile))
			c.met.scatterBytes.Add(n)
			c.met.scatterNs.Observe(real.Nanoseconds())
			op.Stats.BytesMoved += n
			op.completeOne(c)
		})
		if err != nil {
			fail(err)
		}
	})
	op.Stats.Messages++
}

// RunAll drains the cluster's event kernel, completing every started
// operation, and returns the final virtual time.
func (c *Cluster) RunAll() int64 { return c.K.Run() }

// windowExtremes returns the first and last selected element offsets
// of the projection inside [lo, hi]. Callers ensure the window is
// non-empty.
func windowExtremes(p *redist.Projection, lo, hi int64) (first, last int64) {
	first, last = -1, -1
	p.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		if first < 0 {
			first = seg.L
		}
		last = seg.R
		return true
	})
	return first, last
}

// mapThrough maps a view offset onto the subfile through the file
// space: MAP_S(MAP⁻¹_V(y)) (§6.2). The offset is guaranteed to belong
// to the intersection, so the direct map succeeds.
func mapThrough(v *View, sub *subView, y int64) (int64, error) {
	x, err := v.mapper.MapInv(y)
	if err != nil {
		return 0, err
	}
	return sub.mapper.Map(x)
}

// gatherWindow packs the projection's bytes within [lowV, highV] from
// a window-relative buffer (buf[0] is view offset lowV).
func gatherWindow(dst, buf []byte, p *redist.Projection, lowV, highV int64) error {
	var pos int64
	var err error
	p.WalkRange(lowV, highV, func(seg falls.LineSegment) bool {
		if pos+seg.Len() > int64(len(dst)) {
			err = fmt.Errorf("clusterfile: gather overflow")
			return false
		}
		copy(dst[pos:pos+seg.Len()], buf[seg.L-lowV:seg.R+1-lowV])
		pos += seg.Len()
		return true
	})
	return err
}

// scatterWindow unpacks contiguous data into the projection's bytes of
// a window-relative buffer.
func scatterWindow(buf, data []byte, p *redist.Projection, lowV, highV int64) error {
	var pos int64
	var err error
	p.WalkRange(lowV, highV, func(seg falls.LineSegment) bool {
		if pos+seg.Len() > int64(len(data)) {
			err = fmt.Errorf("clusterfile: scatter underflow")
			return false
		}
		copy(buf[seg.L-lowV:seg.R+1-lowV], data[pos:pos+seg.Len()])
		pos += seg.Len()
		return true
	})
	return err
}
