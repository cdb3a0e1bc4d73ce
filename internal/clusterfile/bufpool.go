package clusterfile

import (
	"sync"
	"sync/atomic"
)

// bufpool.go pools the gather/scatter message buffers of the write,
// read and redistribution paths. The protocol allocates one buffer
// per (operation, subfile) pair and drops it as soon as the payload
// has been scattered; under repeated operations that is a steady
// stream of large short-lived allocations, which the pool turns into
// reuse. Buffers are handed out at exact length but retain their
// capacity across uses; callers must fully overwrite the requested
// bytes (every gather path does — it packs exactly len(buf) bytes).

var msgBufPool sync.Pool

// maxPooledMsgBuf caps the capacity a returned buffer may retain. One
// huge redistribution would otherwise pin its peak buffer in the pool
// for the rest of the process; buffers beyond the cap are dropped and
// counted instead.
const maxPooledMsgBuf = 8 << 20

var msgBufDiscards atomic.Int64

// MsgBufDiscards reports how many buffers were dropped instead of
// pooled because they exceeded the retention cap (process-wide).
func MsgBufDiscards() int64 { return msgBufDiscards.Load() }

// getMsgBuf returns a length-n buffer, reusing pooled capacity when
// possible. Contents are unspecified. Pool traffic is counted on the
// cluster's msgbuf hit/miss series: a hit reuses pooled capacity, a
// miss (empty pool, or pooled capacity too small) allocates.
func (c *Cluster) getMsgBuf(n int64) []byte {
	if v := msgBufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if int64(cap(b)) >= n {
			c.met.bufHits.Inc()
			return b[:n]
		}
	}
	c.met.bufMisses.Inc()
	return make([]byte, n)
}

// putMsgBuf returns a buffer to the pool. The caller must not retain
// the slice afterwards. Oversized buffers are dropped rather than
// pooled so a single giant operation cannot pin its peak allocation;
// drops count on both the process-wide counter and the cluster's
// msgbuf-discard series.
func (c *Cluster) putMsgBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	c.met.bufReturns.Inc()
	if cap(b) > maxPooledMsgBuf {
		msgBufDiscards.Add(1)
		c.met.bufDiscards.Inc()
		c.met.poolDiscards.Set(MsgBufDiscards())
		return
	}
	b = b[:0]
	msgBufPool.Put(&b)
}
