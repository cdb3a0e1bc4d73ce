package rpc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/redist"
)

// stream.go is the data daemon's half of the chunked-transfer
// messages, which run as pipelines on the shared connection loop
// (conn.go) —
//
//   write stream: the read loop feeds arriving chunks into a bounded
//   channel; a per-stream worker scatters them into the store while
//   later chunks are still crossing the wire. When the channel's
//   window fills, the read loop parks, which propagates TCP
//   backpressure to the client.
//
//   read stream: a producer goroutine gathers store bytes into
//   chunk-sized buffers while the stream worker sends completed
//   chunks, so disk gather and network transmission overlap.
//
// Store access locks the file per individual store operation rather
// than per whole transfer: holding the file lock across a chunk-fed
// scatter would let one stalled stream wedge every other stream of the
// same file (the chunks that would un-stall it can sit behind the
// blocked one in the read loop).

// errSenderDead stops a read-stream producer whose sender hit a
// transport error.
var errSenderDead = errors.New("rpc: stream sender failed")

// srvChunk is one arriving write-stream chunk; data aliases body.
type srvChunk struct {
	body  []byte
	data  []byte
	last  bool
	abort bool
}

// srvWriteStream is one open chunked write. The read loop owns the
// map entry and closes chunks on the last/abort chunk or connection
// death; the worker drains the channel no matter what, so the read
// loop never blocks on a dead stream forever.
type srvWriteStream struct {
	chunks chan srvChunk
}

// sendMsg sends a reply message on a stream and releases its buffer.
func (sc *srvConn) sendMsg(sid uint64, msg []byte) {
	sc.send(&frameHdr{sid: sid}, msg)
	putFrameBuf(msg)
}

// stream consumes the frames of chunked transfers on the read loop:
// stream opens spawn their worker, write chunks feed it.
func (s *Server) stream(sc *srvConn, h frameHdr, msgType byte, body, payload []byte) (bool, error) {
	switch msgType {
	case MsgWriteChunk:
		flags, data, err := splitChunk(payload)
		if err != nil {
			ReleaseFrame(body)
			return true, err
		}
		st := sc.writeStreams[h.sid]
		if st == nil {
			// Chunk for a stream that never opened (or a duplicate
			// tail after teardown): drop it.
			ReleaseFrame(body)
			return true, nil
		}
		ck := srvChunk{
			body:  body,
			data:  data,
			last:  flags&flagChunkLast != 0,
			abort: flags&flagChunkAbort != 0,
		}
		st.chunks <- ck
		if ck.last || ck.abort {
			close(st.chunks)
			delete(sc.writeStreams, h.sid)
		}
	case MsgWriteStream:
		req, err := DecodeWriteStream(payload)
		ReleaseFrame(body)
		if err != nil {
			return true, err
		}
		st := &srvWriteStream{chunks: make(chan srvChunk, streamWindow)}
		if sc.writeStreams == nil {
			sc.writeStreams = make(map[uint64]*srvWriteStream)
		}
		sc.writeStreams[h.sid] = st
		sc.wg.Add(1)
		go s.runWriteStream(sc, h, req, st)
	case MsgReadStream:
		req, err := DecodeReadStream(payload)
		ReleaseFrame(body)
		if err != nil {
			return true, err
		}
		sc.wg.Add(1)
		go s.runReadStream(sc, h, req)
	default:
		return false, nil
	}
	return true, nil
}

// chunkFeed pulls a write stream's bytes chunk by chunk, releasing
// each spent frame. After take returns nil, exactly one of ended /
// aborted / closed explains why.
type chunkFeed struct {
	s        *Server
	chunks   <-chan srvChunk
	cur      srvChunk
	off      int
	received int64
	ended    bool // clean last chunk consumed
	aborted  bool // client sent an abort chunk
	closed   bool // connection died before the stream finished

	// onWait, when set, runs just before take blocks on the chunk
	// channel. The scatter uses it to drop the file lock while waiting
	// on the network, so it can hold the lock across the buffered
	// chunks (per-chunk locking instead of per-segment) without ever
	// holding it through a wait — that would let one stalled stream
	// wedge every sibling stream of the same file.
	onWait func()
	// measure accumulates the blocked time into waitNs (stream-window
	// stalls: the client is slower than the scatter). Only set when
	// the stream is traced, so the untraced hot loop never reads the
	// clock for it.
	measure bool
	waitNs  int64
}

// take returns up to n unconsumed stream bytes (aliasing the chunk
// frame; valid until the next call), or nil at end of stream.
func (f *chunkFeed) take(n int64) []byte {
	for {
		if f.cur.body != nil {
			if f.off < len(f.cur.data) {
				avail := int64(len(f.cur.data) - f.off)
				if avail > n {
					avail = n
				}
				b := f.cur.data[f.off : f.off+int(avail)]
				f.off += int(avail)
				return b
			}
			if f.cur.last {
				f.ended = true
			}
			if f.cur.abort {
				f.aborted = true
			}
			ReleaseFrame(f.cur.body)
			f.cur = srvChunk{}
			f.off = 0
		}
		if f.ended || f.aborted || f.closed {
			return nil
		}
		var ck srvChunk
		var ok bool
		select {
		case ck, ok = <-f.chunks:
		default:
			if f.onWait != nil {
				f.onWait()
			}
			if f.measure {
				t0 := time.Now()
				ck, ok = <-f.chunks
				f.waitNs += time.Since(t0).Nanoseconds()
			} else {
				ck, ok = <-f.chunks
			}
		}
		if !ok {
			f.closed = true
			return nil
		}
		f.s.met.chunksRecvd.Inc()
		f.received += int64(len(ck.data))
		f.cur = ck
	}
}

// drain consumes the rest of the stream without using the bytes, so
// the read loop is never left blocked on the stream's window.
func (f *chunkFeed) drain() {
	for f.take(1<<62) != nil {
	}
}

// streamSpan opens the server span of a traced stream. Its records
// cannot ride the stream's reply, which is built before the span
// closes: done parks them in the stash for the client's MsgSpans drain.
func (s *Server) streamSpan(name string, h frameHdr) (sp *obs.Span, done func()) {
	sp = s.startSpan(name, h.trace, h.span)
	s.cfg.Tracer.Adopt(sp)
	return sp, func() {
		if sp != nil {
			s.cfg.Tracer.FinishOp(sp)
			s.stash.Put(h.trace, sp.Records(nil))
		}
	}
}

// observeStream records the request series of one stream; the returned
// func closes them out.
func (s *Server) observeStream(msgType byte) func() {
	start := time.Now()
	s.met.inflight.Add(1)
	s.met.requests[msgType].Inc()
	return func() {
		s.met.inflight.Add(-1)
		s.met.requestNs.Observe(time.Since(start).Nanoseconds())
		s.met.poolDiscards.Set(FramePoolDiscards())
	}
}

// runWriteStream executes one chunked scatter: the shared openSeg
// prelude, then the chunk feed consumed through a single projection
// walk.
func (s *Server) runWriteStream(sc *srvConn, h frameHdr, req *WriteStreamReq, st *srvWriteStream) {
	defer sc.wg.Done()
	start := time.Now()
	defer s.observeStream(MsgWriteStream)()
	s.met.streamsW.Inc()
	sp, done := s.streamSpan("write_stream", h)
	defer done()

	feed := &chunkFeed{s: s, chunks: st.chunks, measure: sp != nil}
	t, rerr := s.openSeg(sc.tenant, &segReq{
		file: req.File, subfile: req.Subfile, fp: req.Fingerprint,
		lo: req.Lo, hi: req.Hi, n: req.Total, epoch: req.Epoch, write: true,
	}, sp)
	if rerr != nil {
		sp.Fail()
		feed.drain()
		if !feed.closed { // else the connection is gone; nobody to answer
			sc.sendMsg(h.sid, s.refuse(getFrameBuf(64), rerr))
		}
		return
	}
	defer t.release()
	sf, store, proj := t.sf, t.st, t.proj
	sf.mu.Unlock()

	// The scatter: consume the feed through the projection's segments
	// (or contiguously at Lo). The file lock is taken lazily and held
	// across everything already buffered, but released whenever the
	// feed is about to wait on the network (see chunkFeed.onWait) —
	// amortized locking without wedging sibling streams.
	locked := false
	var lockNs int64
	lock := func() {
		if !locked {
			if sp != nil {
				t0 := time.Now()
				sf.mu.Lock()
				lockNs += time.Since(t0).Nanoseconds()
			} else {
				sf.mu.Lock()
			}
			locked = true
		}
	}
	unlock := func() {
		if locked {
			sf.mu.Unlock()
			locked = false
		}
	}
	defer unlock()
	feed.onWait = unlock
	writeAt := func(b []byte, off int64) error {
		lock()
		return store.WriteAt(b, off)
	}
	ssp := sp.StartChild("scatter")
	var werr error
	if proj == nil {
		pos := req.Lo
		for {
			b := feed.take(1 << 62)
			if b == nil {
				break
			}
			if pos+int64(len(b)) > req.Hi+1 {
				werr = fmt.Errorf("stream overflows window [%d,%d]", req.Lo, req.Hi)
				break
			}
			if werr = writeAt(b, pos); werr != nil {
				break
			}
			pos += int64(len(b))
		}
	} else {
		proj.WalkRange(req.Lo, req.Hi, func(seg falls.LineSegment) bool {
			off := seg.L
			left := seg.Len()
			for left > 0 {
				b := feed.take(left)
				if b == nil {
					werr = fmt.Errorf("stream ended %d bytes into segment", seg.Len()-left)
					return false
				}
				if werr = writeAt(b, off); werr != nil {
					return false
				}
				off += int64(len(b))
				left -= int64(len(b))
			}
			return true
		})
	}
	feed.drain()
	// The accumulated waits surface as pre-measured children: lock
	// contention and stream-window stalls both live inside the scatter.
	ssp.AddInterval("lock_wait", start, time.Duration(lockNs))
	ssp.AddInterval("stream_stall", start, time.Duration(feed.waitNs))
	ssp.End()
	switch {
	case feed.aborted || feed.closed:
		// Abandoned by the client (or the connection died): no reply.
		sp.Fail()
		return
	case werr != nil:
		sp.Fail()
		sc.sendMsg(h.sid, s.errResp(getFrameBuf(64), ErrCodeIO, werr.Error()))
		return
	case feed.received != req.Total:
		sp.Fail()
		sc.sendMsg(h.sid, s.errResp(getFrameBuf(64), ErrCodeBadRequest,
			fmt.Sprintf("stream carried %d bytes, announced %d", feed.received, req.Total)))
		return
	}
	sc.sendMsg(h.sid, AppendOK(getFrameBuf(16)))
}

// streamPiece is one gathered chunk traveling producer -> sender.
type streamPiece struct {
	data []byte
	last bool
}

// runReadStream executes one chunked gather: the shared openSeg
// prelude (a stream has no single-frame size cap — chunking is how a
// read escapes it), then a producer/sender pipeline.
func (s *Server) runReadStream(sc *srvConn, h frameHdr, req *ReadStreamReq) {
	defer sc.wg.Done()
	start := time.Now()
	defer s.observeStream(MsgReadStream)()
	s.met.streamsR.Inc()
	sp, done := s.streamSpan("read_stream", h)
	defer done()

	t, rerr := s.openSeg(sc.tenant, &segReq{
		file: req.File, subfile: req.Subfile, fp: req.Fingerprint,
		lo: req.Lo, hi: req.Hi, n: req.N, epoch: req.Epoch,
	}, sp)
	if rerr != nil {
		sp.Fail()
		sc.sendMsg(h.sid, s.refuse(getFrameBuf(64), rerr))
		return
	}
	defer t.release()
	sf, store, proj := t.sf, t.st, t.proj
	sf.mu.Unlock()

	cs := int(req.ChunkSize)
	if cs <= 0 {
		cs = 1 << 20
	}
	if max := int(s.cfg.MaxFrame) - frameSlack; cs > max {
		cs = max
	}

	ch := make(chan streamPiece, streamWindow)
	var dead atomic.Bool
	perrCh := make(chan error, 1)
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		perrCh <- gatherChunks(req, proj, sf, store, cs, ch, &dead, sp)
		close(ch)
	}()

	var sendNs int64
	sendFailed := false
	for p := range ch {
		if sendFailed {
			putFrameBuf(p.data)
			continue
		}
		flags := byte(0)
		if p.last {
			flags = flagChunkLast
		}
		msg := [2]byte{MsgDataChunk, flags}
		var err error
		if sp != nil {
			t0 := time.Now()
			err = sc.send(&frameHdr{sid: h.sid}, msg[:], p.data)
			sendNs += time.Since(t0).Nanoseconds()
		} else {
			err = sc.send(&frameHdr{sid: h.sid}, msg[:], p.data)
		}
		putFrameBuf(p.data)
		if err != nil {
			dead.Store(true)
			sendFailed = true
			continue
		}
		s.met.chunksSent.Inc()
	}
	// Time spent pushing chunks down the connection: wire transmission
	// plus the stall when the client's window is full.
	sp.AddInterval("send", start, time.Duration(sendNs))
	perr := <-perrCh
	if sendFailed {
		sp.Fail()
	}
	if perr != nil && perr != errSenderDead && !sendFailed {
		// Mid-stream store failure: the error frame terminates the
		// stream, whether or not data chunks already traveled.
		sp.Fail()
		sc.sendMsg(h.sid, s.errResp(getFrameBuf(64), ErrCodeIO, perr.Error()))
	}
}

// gatherChunks is the read-stream producer: it walks the requested
// range (projected or contiguous), gathering store bytes into
// chunk-sized pooled buffers, and hands each completed chunk to the
// sender. The final chunk is flagged last (and may be empty for N=0).
func gatherChunks(req *ReadStreamReq, proj *redist.Projection, sf *serverFile,
	store clusterfile.Storage, cs int, ch chan<- streamPiece, dead *atomic.Bool, sp *obs.Span) error {
	// The file lock is held across each chunk's worth of store reads
	// and dropped before handing the chunk to the sender (a potential
	// wait on the network), mirroring the write-side scatter.
	gsp := sp.StartChild("gather")
	gstart := time.Now()
	locked := false
	var lockNs, stallNs int64
	lock := func() {
		if !locked {
			if sp != nil {
				t0 := time.Now()
				sf.mu.Lock()
				lockNs += time.Since(t0).Nanoseconds()
			} else {
				sf.mu.Lock()
			}
			locked = true
		}
	}
	unlock := func() {
		if locked {
			sf.mu.Unlock()
			locked = false
		}
	}
	defer unlock()
	defer func() {
		gsp.AddInterval("lock_wait", gstart, time.Duration(lockNs))
		gsp.AddInterval("stream_stall", gstart, time.Duration(stallNs))
		gsp.End()
	}()
	buf := getFrameBuf(cs)[:0]
	emit := func(last bool) bool {
		unlock()
		if dead.Load() {
			putFrameBuf(buf)
			buf = nil
			return false
		}
		if sp != nil {
			// The hand-off blocks when the sender's window is full:
			// the read-side stream stall.
			t0 := time.Now()
			ch <- streamPiece{data: buf, last: last}
			stallNs += time.Since(t0).Nanoseconds()
		} else {
			ch <- streamPiece{data: buf, last: last}
		}
		buf = nil
		if !last {
			buf = getFrameBuf(cs)[:0]
		}
		return true
	}
	// read appends [off, off+n) of the store to the chunk in progress,
	// emitting chunks as they fill.
	read := func(off, n int64) error {
		for n > 0 {
			space := int64(cs - len(buf))
			if space == 0 {
				if !emit(false) {
					return errSenderDead
				}
				space = int64(cs)
			}
			m := n
			if m > space {
				m = space
			}
			k := len(buf)
			buf = buf[:k+int(m)]
			lock()
			err := store.ReadAt(buf[k:k+int(m)], off)
			if err != nil {
				return err
			}
			off += m
			n -= m
		}
		return nil
	}
	var err error
	if proj == nil {
		err = read(req.Lo, req.N)
	} else {
		proj.WalkRange(req.Lo, req.Hi, func(seg falls.LineSegment) bool {
			err = read(seg.L, seg.Len())
			return err == nil
		})
	}
	if err != nil {
		putFrameBuf(buf)
		return err
	}
	if !emit(true) {
		return errSenderDead
	}
	return nil
}
