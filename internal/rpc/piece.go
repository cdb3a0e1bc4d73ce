package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"parafile/internal/falls"
	"parafile/internal/redist"
)

// piece.go cuts large transfers into unary requests. A segment
// request is addressed by its extremity window [Lo, Hi] (§8); any cut
// of the window into consecutive sub-windows yields requests that are
// again complete segment requests. A transfer larger than one chunk
// therefore travels as pieces that each select at most one chunk, sent
// as ordinary MsgWriteSegs/MsgReadSegs frames, streamWindow of them in
// flight, all inside one retry attempt of the op.

// piece is one sub-window of a segment request: [lo, hi] selects the n
// payload bytes at off.
type piece struct {
	lo, hi int64
	off, n int64
}

// cutWindow cuts the window [lo, hi], which selects total bytes (of
// proj, or contiguously from lo when proj is nil), into consecutive
// sub-windows that each select at most chunk bytes. A cut may fall
// inside a projection segment. Every piece but the last ends on its
// last selected byte, so the unselected bytes between two pieces lead
// the later one; the last piece ends at hi, so the subfile grows to
// hi+1 exactly as for the uncut window. A window of at most one chunk
// is one piece, left for the daemon to validate; a larger one must
// select exactly total bytes.
func cutWindow(proj *redist.Projection, lo, hi, total, chunk int64) ([]piece, error) {
	if total <= chunk {
		return []piece{{lo: lo, hi: hi, n: total}}, nil
	}
	pieces := make([]piece, 0, (total+chunk-1)/chunk)
	if proj == nil {
		for off := int64(0); off < total; off += chunk {
			n := min(chunk, total-off)
			pieces = append(pieces, piece{lo: lo + off, hi: lo + off + n - 1, off: off, n: n})
		}
		pieces[len(pieces)-1].hi = hi
		return pieces, nil
	}
	start, off, got := lo, int64(0), int64(0)
	proj.WalkRange(lo, hi, func(seg falls.LineSegment) bool {
		for at := seg.L; at <= seg.R; {
			take := min(seg.R-at+1, chunk-got)
			at += take
			got += take
			if got == chunk {
				pieces = append(pieces, piece{lo: start, hi: at - 1, off: off, n: got})
				start, off, got = at, off+got, 0
			}
		}
		return true
	})
	if off+got != total {
		return nil, fmt.Errorf("rpc: window [%d,%d] selects %d bytes, request carries %d", lo, hi, off+got, total)
	}
	if got > 0 {
		pieces = append(pieces, piece{lo: start, hi: hi, off: off, n: got})
	} else {
		pieces[len(pieces)-1].hi = hi
	}
	return pieces, nil
}

// eachPiece runs do for every piece, at most streamWindow at once, and
// returns the first failure once every started piece has settled. A
// failure (or the caller's cancellation) stops the pieces not yet
// started and cancels those in flight: the attempt has failed, and its
// retry re-sends every piece.
func eachPiece(ctx context.Context, pieces []piece, do func(context.Context, piece) error) error {
	if len(pieces) == 1 {
		return do(ctx, pieces[0])
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(len(pieces)) {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = do(ctx, pieces[i])
			}
			if err != nil {
				once.Do(func() { first = err; cancel() })
				return
			}
		}
	}
	for w := 1; w < min(streamWindow, len(pieces)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}
