package rpc

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
)

// stream_test.go covers chunked streamed transfers, the multiplexed
// connection they ride on, the fault matrix mid-stream, and the
// retention caps on the frame pool.

// streamCfg is a client configuration whose chunk is small enough that
// the tests' segment operations stream as several chunks per op.
func streamCfg(addr string, reg *obs.Registry) ClientConfig {
	return ClientConfig{
		Addr:        addr,
		ChunkSize:   64 << 10,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	}
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
	addr, _ := startServer(t, ServerConfig{})
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
	if v := reg.Counter(MetricClientStreamedOps + `{dir="write"}`).Value(); v == 0 {
		t.Fatal("write did not travel the streamed path")
	}
	if v := reg.Counter(MetricClientStreamedOps + `{dir="read"}`).Value(); v == 0 {
		t.Fatal("read did not travel the streamed path")
	}
	if v := reg.Counter(MetricClientChunks + `{dir="sent"}`).Value(); v < 6 {
		t.Fatalf("only %d chunks sent for a 5.2-chunk payload", v)
	}
	if v := reg.Counter(MetricClientChunks + `{dir="received"}`).Value(); v < 6 {
		t.Fatalf("only %d chunks received for a 5.2-chunk payload", v)
	}
}

func TestStreamedMatchesMonolithic(t *testing.T) {
	// Chunk-size equivalence: bytes written as a chunked stream must
	// read back identically through a client whose chunk holds the
	// whole payload (one frame per op), and vice versa.
	addr, _ := startServer(t, ServerConfig{})
	ctx := context.Background()
	sreg, mreg := obs.NewRegistry(), obs.NewRegistry()
	sc := NewClient(streamCfg(addr, sreg))
	defer sc.Close()
	mc := NewClient(ClientConfig{Addr: addr, ChunkSize: 300 << 10, Metrics: mreg})
	defer mc.Close()
	if err := sc.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
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
	streamedOps := func(reg *obs.Registry) uint64 {
		return reg.Counter(MetricClientStreamedOps+`{dir="write"}`).Value() +
			reg.Counter(MetricClientStreamedOps+`{dir="read"}`).Value()
	}
	if streamedOps(sreg) != 2 || streamedOps(mreg) != 0 {
		t.Fatalf("streamed ops: small-chunk client %d (want 2), payload-sized chunk %d (want 0)",
			streamedOps(sreg), streamedOps(mreg))
	}
}

func TestChunkSizeClampedToMaxFrame(t *testing.T) {
	// A chunk above the frame cap would produce frames the daemon
	// drops as oversized, retried to exhaustion. The client clamps it,
	// so a 96 MiB ChunkSize against the default 64 MiB MaxFrame still
	// moves a 70 MiB payload — as two chunks — byte-identically.
	if testing.Short() {
		t.Skip("moves 70 MiB twice")
	}
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, ChunkSize: 96 << 20, MaxRetries: -1, Metrics: reg})
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
	if v := reg.Counter(MetricClientChunks + `{dir="sent"}`).Value(); v != 2 {
		t.Fatalf("%d chunks sent, want 2", v)
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
	// Mid-stream faults: the connection dies N bytes into a chunked
	// write, a response chunk is corrupted in flight, a response stalls
	// past the read timeout. Each kills the multiplexed connection; the
	// idempotent retry redials and the operation still completes with
	// the right bytes.
	cases := []struct {
		name   string
		rule   fault.Rule
		cfg    func(*ClientConfig)
		metric string
	}{
		{
			// After skips the preface and CreateFile writes so the
			// injected reset lands amid the chunk frames of the big write.
			name:   "conn dies mid-stream",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnWrite, Kind: fault.ErrorOnce, After: 10},
			metric: MetricClientRetries,
		},
		{
			name:   "corrupt response chunk",
			rule:   fault.Rule{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Corrupt, Times: 1},
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := startServer(t, ServerConfig{})
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
			data := make([]byte, 400<<10)
			rand.New(rand.NewSource(5)).Read(data)
			hi := int64(len(data)) - 1
			if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, Data: data}); err != nil {
				t.Fatalf("write with %s: %v", tc.name, err)
			}
			if inj.Injected(0) == 0 {
				t.Fatal("fault rule never fired")
			}
			got := make([]byte, len(data))
			if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: hi, N: int64(len(data))}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("bytes differ after mid-stream fault recovery")
			}
			if reg.Counter(tc.metric).Value() == 0 {
				t.Fatalf("%s stayed zero", tc.metric)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			waitNoGoroutineLeak(t, before)
		})
	}
}

func TestStreamClientCancelMidWrite(t *testing.T) {
	// A context that expires between chunks aborts the stream: the
	// client tells the server to drop the partial write, the operation
	// reports the cancellation, and neither side strands a goroutine —
	// the connection itself stays usable.
	addr, _ := startServer(t, ServerConfig{})
	before := runtime.NumGoroutine()
	inj := fault.NewInjector(fault.Plan{Seed: 13, Rules: []fault.Rule{
		// Skip the handshake and CreateFile writes, then slow every
		// chunk frame so the deadline lands between chunks.
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
		t.Fatal("write succeeded despite a context deadline mid-stream")
	}
	// The same client performs a clean operation afterwards.
	small := []byte("still alive")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(small)) - 1, Data: small}); err != nil {
		t.Fatalf("write after cancelled stream: %v", err)
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
