package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parafile/internal/falls"
	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/redist"
)

// piece_test.go covers streamed transfers — payloads larger than one
// chunk, cut into unary pieces — the cut itself, the multiplexed
// connection the pieces ride on, the fault matrix mid-op, and the
// retention caps on the frame pool.

// streamCfg is a client configuration whose chunk is small enough that
// the tests' segment operations travel as several pieces per op.
func streamCfg(addr string, reg *obs.Registry) ClientConfig {
	return ClientConfig{
		Addr:        addr,
		ChunkSize:   64 << 10,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	}
}

// requests reads a per-type request counter: on a client registry it
// counts ops, on a server registry the frames (pieces) that served
// them.
func requests(reg *obs.Registry, series string, msgType byte) uint64 {
	return reg.Counter(fmt.Sprintf(`%s{type="%s"}`, series, MsgName(msgType))).Value()
}

// waitNoGoroutineLeak waits for the goroutine count to settle back to
// the baseline.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStreamedWriteReadRoundTrip(t *testing.T) {
	sreg := obs.NewRegistry()
	addr, _ := startServer(t, ServerConfig{Metrics: sreg})
	reg := obs.NewRegistry()
	c := NewClient(streamCfg(addr, reg))
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// ~5 chunks of payload, not chunk-aligned on purpose.
	data := make([]byte, 5*(64<<10)+12345)
	rand.New(rand.NewSource(42)).Read(data)
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read-back differs from what was written")
	}
	// One op each on the client; six pieces each on the wire.
	for _, mt := range []byte{MsgWriteSegs, MsgReadSegs} {
		if ops := requests(reg, MetricClientRequests, mt); ops != 1 {
			t.Fatalf("client counted %d %s ops, want 1", ops, MsgName(mt))
		}
		if pieces := requests(sreg, MetricServerRequests, mt); pieces != 6 {
			t.Fatalf("daemon served %d %s pieces for a 5.2-chunk payload, want 6", pieces, MsgName(mt))
		}
	}
}

func TestStreamedMatchesMonolithic(t *testing.T) {
	// Chunk-size equivalence: bytes written as pieces must read back
	// identically through a client whose chunk holds the whole payload
	// (one frame per op), and vice versa.
	sreg := obs.NewRegistry()
	addr, _ := startServer(t, ServerConfig{Metrics: sreg})
	ctx := context.Background()
	sc := NewClient(streamCfg(addr, nil))
	defer sc.Close()
	mc := NewClient(ClientConfig{Addr: addr, ChunkSize: 300 << 10})
	defer mc.Close()
	if err := sc.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	frames := func() uint64 {
		return requests(sreg, MetricServerRequests, MsgWriteSegs) + requests(sreg, MetricServerRequests, MsgReadSegs)
	}
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(7)).Read(data)
	hi := int64(len(data)) - 1
	if err := sc.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := mc.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("monolithic read of a streamed write differs")
	}
	if n := frames(); n != 5+1 {
		t.Fatalf("%d frames for a 5-piece write and a monolithic read, want 6", n)
	}
	// Reverse direction: monolithic write, streamed read.
	for i := range data {
		data[i] ^= 0xFF
	}
	if err := mc.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := sc.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed read of a monolithic write differs")
	}
	if n := frames(); n != 12 {
		t.Fatalf("%d frames after the reverse pair, want 12", n)
	}
}

func TestChunkSizeClampedToMaxFrame(t *testing.T) {
	// A chunk above the frame cap would produce frames the daemon
	// drops as oversized, retried to exhaustion. The client clamps it,
	// so a 96 MiB ChunkSize against the default 64 MiB MaxFrame still
	// moves a 70 MiB payload — as two pieces — byte-identically.
	if testing.Short() {
		t.Skip("moves 70 MiB twice")
	}
	sreg := obs.NewRegistry()
	addr, _ := startServer(t, ServerConfig{Metrics: sreg})
	c := NewClient(ClientConfig{Addr: addr, ChunkSize: 96 << 20, MaxRetries: -1})
	defer c.Close()
	if c.cfg.ChunkSize != DefaultMaxFrame-frameSlack {
		t.Fatalf("chunk size %d not clamped to %d", c.cfg.ChunkSize, DefaultMaxFrame-frameSlack)
	}
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 70<<20)
	rand.New(rand.NewSource(70)).Read(data)
	hi := int64(len(data)) - 1
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("70 MiB read-back differs from what was written")
	}
	if v := requests(sreg, MetricServerRequests, MsgWriteSegs); v != 2 {
		t.Fatalf("%d write pieces, want 2", v)
	}
}

func TestPieceHeadFitsFrame(t *testing.T) {
	// Every piece carries the message head, file name included: at the
	// clamped chunk a piece of a file with a long name must still fit
	// the daemon's frame cap, or the daemon drops the connection and
	// the client retries to exhaustion.
	const maxFrame = 4096
	addr, _ := startServer(t, ServerConfig{MaxFrame: maxFrame})
	c := NewClient(ClientConfig{Addr: addr, MaxFrame: maxFrame, ChunkSize: maxFrame, MaxRetries: -1})
	defer c.Close()
	ctx := context.Background()
	name := strings.Repeat("n", 255)
	if err := c.CreateFile(ctx, &CreateFileReq{Name: name, Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{c.cfg.ChunkSize, 3*c.cfg.ChunkSize - 5} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		hi := int64(n) - 1
		if err := c.WriteSegments(ctx, &WriteSegsReq{File: name, Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
			t.Fatalf("%d-byte write at a %d-byte chunk: %v", n, c.cfg.ChunkSize, err)
		}
		got := make([]byte, n)
		if err := c.ReadSegments(ctx, &ReadSegsReq{File: name, Subfile: 0, Lo: 0, Hi: hi, N: int64(n)}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d-byte read-back differs", n)
		}
	}
}

func TestMuxSingleConnConcurrency(t *testing.T) {
	// Concurrent streamed operations share one multiplexed connection:
	// exactly one dial, no per-request sockets.
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(streamCfg(addr, reg))
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := make([]byte, 200<<10)
			rand.New(rand.NewSource(int64(w))).Read(data)
			lo := int64(w) * int64(len(data))
			hi := lo + int64(len(data)) - 1
			if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: lo, Hi: hi, Data: data}); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: lo, Hi: hi, N: int64(len(data))}, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("worker %d read back different bytes", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dials := reg.Counter(MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials for %d concurrent workers, want 1 multiplexed connection", dials, workers)
	}
}

func TestStreamFaultMatrix(t *testing.T) {
	// Faults in the middle of a 7-piece write. A reset on one piece's
	// frame, a corrupted reply and a reply stalled past the read
	// timeout each kill the multiplexed connection and fail the
	// attempt; the idempotent retry redials, re-sends every piece, and
	// the op completes with the right bytes, counted once. A connection
	// that fails for good after some bytes, and a reply that hangs past
	// the op's deadline, fail the op instead — promptly, with no
	// goroutine left behind. Every wrapped write is one frame part: a
	// frame is head, message parts and trailer, so the preface and the
	// CreateFile take three writes each and every piece four. A frame
	// is read in three calls: length, body and trailer.
	const payload = 400 << 10
	cases := []struct {
		name   string
		rule   fault.Rule
		cfg    func(*ClientConfig)
		opCtx  time.Duration // op deadline (0 = none)
		metric string        // must move when the op recovers
		fails  bool          // the op must fail
	}{
		{
			// After skips the preface, the CreateFile and the first
			// piece, so the reset lands on the second piece's frame.
			name:   "conn dies mid-stream",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.ErrorOnce, After: 10},
			metric: MetricClientRetries,
		},
		{
			name:   "error on piece 5",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.ErrorOnce, After: 6 + 4*4},
			metric: MetricClientRetries,
		},
		{
			// Past the preface's and the CreateFile's replies, the body
			// of the first piece's reply: its frame checksum fails.
			name:   "corrupt response chunk",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Corrupt, After: 7, Times: 1},
			metric: MetricClientRetries,
		},
		{
			name: "response stalls past timeout",
			rule: fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Delay, Delay: 400 * time.Millisecond, Times: 1},
			cfg: func(cfg *ClientConfig) {
				cfg.ReadTimeout = 50 * time.Millisecond
			},
			metric: MetricClientTimeouts,
		},
		{
			// Past the preface and CreateFile replies, the first piece's
			// reply hangs beyond the op deadline.
			name:  "hang mid-op past the op deadline",
			rule:  fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Delay, Delay: 600 * time.Millisecond, After: 6, Times: 1},
			opCtx: 150 * time.Millisecond,
			fails: true,
		},
		{
			name: "fail after bytes",
			rule: fault.Rule{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.FailAfterBytes, Bytes: payload / 2},
			cfg: func(cfg *ClientConfig) {
				cfg.MaxRetries = 1
			},
			fails: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sreg := obs.NewRegistry()
			addr, _ := startServer(t, ServerConfig{Metrics: sreg})
			before := runtime.NumGoroutine()
			inj := fault.NewInjector(fault.Plan{Seed: 11, Rules: []fault.Rule{tc.rule}}, nil)
			reg := obs.NewRegistry()
			cfg := streamCfg(addr, reg)
			cfg.Dialer = inj.Dialer(nil)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			c := NewClient(cfg)
			ctx := context.Background()
			if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
				t.Fatal(err)
			}
			data := make([]byte, payload)
			rand.New(rand.NewSource(5)).Read(data)
			hi := int64(len(data)) - 1
			wctx := ctx
			if tc.opCtx > 0 {
				var cancel context.CancelFunc
				wctx, cancel = context.WithTimeout(ctx, tc.opCtx)
				defer cancel()
			}
			start := time.Now()
			err := c.WriteSegments(wctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data})
			if inj.Injected(0) == 0 {
				t.Fatal("fault rule never fired")
			}
			if tc.fails {
				if err == nil {
					t.Fatalf("write succeeded through %s", tc.name)
				}
				if tc.opCtx > 0 && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("write past the op deadline: %v, want a deadline error", err)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Fatalf("failing write took %v", d)
				}
				// The daemon is unharmed: a clean client rewrites
				// and reads the whole payload.
				c.Close()
				c = NewClient(streamCfg(addr, nil))
				if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
					t.Fatal(err)
				}
			} else if err != nil {
				t.Fatalf("write with %s: %v", tc.name, err)
			}
			got := make([]byte, len(data))
			if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("bytes differ after mid-op fault")
			}
			if !tc.fails {
				if v := reg.Counter(tc.metric).Value(); v == 0 {
					t.Fatalf("%s stayed zero", tc.metric)
				}
				// Retried as one op: the client counts it once, and
				// the daemon served all seven pieces of the attempt
				// that succeeded.
				if ops := requests(reg, MetricClientRequests, MsgWriteSegs); ops != 1 {
					t.Fatalf("client counted %d write ops, want 1", ops)
				}
				if pieces := requests(sreg, MetricServerRequests, MsgWriteSegs); pieces < 7 {
					t.Fatalf("daemon served %d write pieces, want at least 7", pieces)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitNoGoroutineLeak(t, before)
		})
	}
}

func TestStreamClientCancelMidWrite(t *testing.T) {
	// A context that expires between pieces fails the op with the
	// cancellation: the pieces not yet sent stay unsent, neither side
	// strands a goroutine, and the client stays usable.
	addr, _ := startServer(t, ServerConfig{})
	before := runtime.NumGoroutine()
	inj := fault.NewInjector(fault.Plan{Seed: 13, Rules: []fault.Rule{
		// Skip the handshake and CreateFile writes, then slow every
		// piece's frame so the deadline lands between pieces.
		{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.Delay, Delay: 30 * time.Millisecond, After: 6, Times: 12},
	}}, nil)
	cfg := streamCfg(addr, nil)
	cfg.Dialer = inj.Dialer(nil)
	c := NewClient(cfg)
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 512<<10)
	cctx, cancel := context.WithTimeout(ctx, 45*time.Millisecond)
	defer cancel()
	err := c.WriteSegments(cctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data})
	if err == nil {
		t.Fatal("write succeeded despite a context deadline mid-op")
	}
	// The same client performs a clean operation afterwards.
	small := []byte("still alive")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(small)) - 1, Data: small}); err != nil {
		t.Fatalf("write after cancelled op: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, before)
}

func TestFramePoolRetentionCap(t *testing.T) {
	base := FramePoolDiscards()
	putFrameBuf(make([]byte, maxPooledFrame+1))
	if got := FramePoolDiscards() - base; got != 1 {
		t.Fatalf("oversized buffer discards = %d, want 1", got)
	}
	// At the cap the buffer still pools (no discard).
	base = FramePoolDiscards()
	putFrameBuf(make([]byte, maxPooledFrame))
	if got := FramePoolDiscards() - base; got != 0 {
		t.Fatalf("cap-sized buffer was discarded (%d)", got)
	}
}

// randProjSet draws a valid nested-FALLS set within [0, span).
func randProjSet(rng *rand.Rand, span int64, depth int) falls.Set {
	var out falls.Set
	cursor := int64(0)
	for m := 0; m < 3 && span-cursor >= 2; m++ {
		sub := span - cursor
		l := rng.Int63n(sub / 2)
		blockLen := 1 + rng.Int63n(max(1, sub/8))
		if l+blockLen > sub {
			continue
		}
		stride := blockLen + rng.Int63n(blockLen*3+1)
		count := 1 + min((sub-l-blockLen)/stride, rng.Int63n(8))
		n := falls.Leaf(falls.FALLS{L: cursor + l, R: cursor + l + blockLen - 1, S: stride, N: count})
		if depth > 1 && blockLen >= 4 && rng.Intn(2) == 0 {
			n.Inner = randProjSet(rng, blockLen, depth-1)
		}
		out = append(out, n)
		cursor = n.Extent() + 1 + rng.Int63n(3)
	}
	if len(out) == 0 {
		out = falls.Set{falls.MustLeaf(0, span-1, span, 1)}
	}
	if err := out.Validate(); err != nil {
		panic(err)
	}
	return out
}

// TestCutWindowProperty: over random nested-FALLS projections, random
// windows (sparse tails included) and chunk sizes from 1 byte to more
// than the window selects, the pieces tile the window in order, each
// selects at most one chunk (exactly one but the last), their sizes
// and offsets account for every selected byte, and the first and last
// piece keep the window's own extremities — so the daemon's grow to
// hi+1 is the uncut request's. Contiguous windows cut by arithmetic
// the same way.
func TestCutWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for iter := 0; iter < 400; iter++ {
		period := int64(8 + rng.Intn(120))
		set := randProjSet(rng, period, 3)
		var proj *redist.Projection
		if iter%5 != 0 {
			proj = &redist.Projection{Set: set, Period: period, Bytes: set.Size()}
		}
		lo := rng.Int63n(2 * period)
		hi := lo + rng.Int63n(6*period) // may end past the last selected byte
		total := hi - lo + 1
		if proj != nil {
			total = proj.BytesIn(lo, hi)
		}
		chunk := 1 + rng.Int63n(total+2)
		pieces, err := cutWindow(proj, lo, hi, total, chunk)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		selects := func(l, h int64) int64 {
			if proj == nil {
				return h - l + 1
			}
			return proj.BytesIn(l, h)
		}
		desc := fmt.Sprintf("iter %d: window [%d,%d] of %d bytes, chunk %d, set %v: %+v", iter, lo, hi, total, chunk, set, pieces)
		if pieces[0].lo != lo || pieces[len(pieces)-1].hi != hi {
			t.Fatalf("%s: pieces do not keep the window's extremities", desc)
		}
		var off int64
		for i, p := range pieces {
			if i > 0 && p.lo != pieces[i-1].hi+1 {
				t.Fatalf("%s: piece %d does not follow piece %d", desc, i, i-1)
			}
			if p.hi < p.lo-1 {
				t.Fatalf("%s: piece %d is inverted", desc, i)
			}
			if p.off != off || p.n != selects(p.lo, p.hi) {
				t.Fatalf("%s: piece %d is at %d selecting %d, want at %d selecting %d", desc, i, p.off, p.n, off, selects(p.lo, p.hi))
			}
			if p.n > chunk || (i < len(pieces)-1 && p.n != chunk) {
				t.Fatalf("%s: piece %d selects %d bytes of a %d-byte chunk", desc, i, p.n, chunk)
			}
			off += p.n
		}
		if off != total {
			t.Fatalf("%s: pieces select %d bytes, want %d", desc, off, total)
		}
	}
	// A window whose stated size is not what it selects is refused
	// before anything travels.
	proj := &redist.Projection{Set: falls.Set{falls.MustLeaf(0, 3, 8, 2)}, Period: 16, Bytes: 8}
	if _, err := cutWindow(proj, 0, 63, 33, 4); err == nil {
		t.Fatal("cut a 32-byte window as 33 bytes")
	}
}
