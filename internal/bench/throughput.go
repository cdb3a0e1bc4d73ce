package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/codec"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/rpc"
)

// throughput.go measures the data path over loopback TCP: large
// segment operations as one frame per op (monolithic: a chunk as big as
// the payload) versus chunked streams, plus the end-to-end
// redistribution through each transport. The report backs
// the checked-in BENCH record and the -json mode of cmd/redistbench.

// ThroughputOptions configures RunThroughput. The zero value takes
// the full-size defaults; Short shrinks everything for CI smoke runs.
type ThroughputOptions struct {
	// OpBytes is the payload of one wire write/read (default 8 MiB,
	// short 1 MiB) — deliberately beyond one streamed chunk.
	OpBytes int64
	// Ops is the number of timed operations per phase (default 24,
	// short 8).
	Ops int
	// ChunkSize is the streamed-path wire chunk (default 1 MiB).
	ChunkSize int
	// N is the matrix side of the redistribution phase (default 8192,
	// short 512); the redistributed payload is N×N bytes.
	N int64
	// Reps is the number of timed redistribution repetitions per
	// transport after one untimed warmup (default 3, short 2); the
	// median is reported.
	Reps int
	// RebalanceBytes is the file length for the elastic rebalance
	// series (default 32 MiB, short 2 MiB; negative skips the series).
	RebalanceBytes int64
	// RebalanceStripe is that file's stripe unit (default 256 KiB).
	RebalanceStripe int64
	// Short selects the CI smoke-test scale.
	Short bool
	// Metrics, when non-nil, receives the client- and server-side RPC
	// series from every phase.
	Metrics *obs.Registry
}

func (o *ThroughputOptions) fillDefaults() {
	if o.OpBytes <= 0 {
		o.OpBytes = 8 << 20
		if o.Short {
			o.OpBytes = 1 << 20
		}
	}
	if o.Ops <= 0 {
		o.Ops = 24
		if o.Short {
			o.Ops = 8
		}
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1 << 20
	}
	if o.N <= 0 {
		o.N = 8192
		if o.Short {
			o.N = 512
		}
	}
	if o.Reps <= 0 {
		o.Reps = 3
		if o.Short {
			o.Reps = 2
		}
	}
	if o.RebalanceBytes == 0 {
		o.RebalanceBytes = 32 << 20
		if o.Short {
			o.RebalanceBytes = 2 << 20
		}
	}
	if o.RebalanceStripe <= 0 {
		o.RebalanceStripe = 256 << 10
	}
}

// LatencyStat is a per-operation latency summary in microseconds.
type LatencyStat struct {
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// WireModeStat is one wire mode's write/read measurement.
type WireModeStat struct {
	Mode             string      `json:"mode"` // "monolithic" or "streamed"
	WriteMBps        float64     `json:"write_mb_per_s"`
	ReadMBps         float64     `json:"read_mb_per_s"`
	WriteLatency     LatencyStat `json:"write_latency"`
	ReadLatency      LatencyStat `json:"read_latency"`
	WriteAllocsPerOp float64     `json:"write_allocs_per_op"`
	ReadAllocsPerOp  float64     `json:"read_allocs_per_op"`
}

// RedistModeStat is one transport's end-to-end redistribution
// (median of Reps timed runs after one untimed warmup).
type RedistModeStat struct {
	Mode   string  `json:"mode"` // "inproc", "tcp-monolithic", "tcp-streamed"
	MBps   float64 `json:"mb_per_s"`
	WallMs float64 `json:"wall_ms"`
	Reps   int     `json:"reps"`
}

// ThroughputReport is the full benchmark record (the shape of
// BENCH_6.json).
type ThroughputReport struct {
	GOMAXPROCS   int              `json:"gomaxprocs"`
	OpBytes      int64            `json:"op_bytes"`
	Ops          int              `json:"ops"`
	ChunkSize    int              `json:"chunk_size"`
	MatrixN      int64            `json:"matrix_n"`
	RedistSpec   string           `json:"redist_spec"`
	Short        bool             `json:"short"`
	Wire         []WireModeStat   `json:"wire"`
	Redistribute []RedistModeStat `json:"redistribute"`
	// Rebalance is the elastic series: membership changes through the
	// metadata service, each move one online paper redistribution.
	Rebalance         []RebalanceStat `json:"rebalance"`
	WriteSpeedup      float64         `json:"write_speedup_streamed_vs_monolithic"`
	ReadSpeedup       float64         `json:"read_speedup_streamed_vs_monolithic"`
	RedistSpeedup     float64         `json:"redist_speedup_streamed_vs_monolithic"`
	ByteIdentical     bool            `json:"byte_identical"`
	FramePoolDiscards int64           `json:"frame_pool_discards"`
	MsgBufDiscards    int64           `json:"msgbuf_discards"`
}

// startBenchDaemon runs one in-memory daemon on loopback.
func startBenchDaemon(reg *obs.Registry) (string, func() error, error) {
	srv := rpc.NewServer(rpc.ServerConfig{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-done
	}
	return ln.Addr().String(), stop, nil
}

// latencyOf summarizes a sorted-or-not duration sample.
func latencyOf(ds []time.Duration) LatencyStat {
	if len(ds) == 0 {
		return LatencyStat{}
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(s)-1))
		return float64(s[i].Nanoseconds()) / 1e3
	}
	return LatencyStat{P50Us: q(0.50), P99Us: q(0.99)}
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// wirePhys is a single-subfile physical partition wide enough for the
// benchmark ops.
func wirePhys(opBytes int64) []byte {
	pattern := part.MustPattern(
		part.Element{Name: "s0", Set: falls.Set{falls.MustLeaf(0, opBytes-1, opBytes, 1)}},
	)
	return codec.EncodeFile(part.MustFile(0, pattern))
}

// runWireMode measures large contiguous writes and reads through one
// client configuration against a fresh daemon.
func runWireMode(mode string, cfg rpc.ClientConfig, opBytes int64, ops int, reg *obs.Registry) (WireModeStat, error) {
	stat := WireModeStat{Mode: mode}
	addr, stop, err := startBenchDaemon(reg)
	if err != nil {
		return stat, err
	}
	defer stop()
	cfg.Addr = addr
	cfg.Metrics = reg
	c := rpc.NewClient(cfg)
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &rpc.CreateFileReq{Name: "bench", Phys: wirePhys(opBytes), Subfiles: []int{0}}); err != nil {
		return stat, err
	}
	data := make([]byte, opBytes)
	rand.New(rand.NewSource(6)).Read(data)
	hi := opBytes - 1
	wreq := &rpc.WriteSegsReq{File: "bench", Subfile: 0, Lo: 0, Hi: hi, Data: data}
	// Warm up pools, the connection, and the store length.
	if err := c.WriteSegments(ctx, wreq); err != nil {
		return stat, err
	}

	var ms0, ms1 runtime.MemStats
	writeDs := make([]time.Duration, 0, ops)
	runtime.ReadMemStats(&ms0)
	wStart := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		if err := c.WriteSegments(ctx, wreq); err != nil {
			return stat, fmt.Errorf("%s write %d: %w", mode, i, err)
		}
		writeDs = append(writeDs, time.Since(t0))
	}
	wWall := time.Since(wStart)
	runtime.ReadMemStats(&ms1)
	stat.WriteMBps = mbps(opBytes*int64(ops), wWall)
	stat.WriteLatency = latencyOf(writeDs)
	stat.WriteAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)

	dst := make([]byte, opBytes)
	rreq := &rpc.ReadSegsReq{File: "bench", Subfile: 0, Lo: 0, Hi: hi, N: opBytes}
	if err := c.ReadSegments(ctx, rreq, dst); err != nil {
		return stat, err
	}
	if !bytes.Equal(dst, data) {
		return stat, fmt.Errorf("%s: read-back differs from written payload", mode)
	}
	readDs := make([]time.Duration, 0, ops)
	runtime.ReadMemStats(&ms0)
	rStart := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		if err := c.ReadSegments(ctx, rreq, dst); err != nil {
			return stat, fmt.Errorf("%s read %d: %w", mode, i, err)
		}
		readDs = append(readDs, time.Since(t0))
	}
	rWall := time.Since(rStart)
	runtime.ReadMemStats(&ms1)
	stat.ReadMBps = mbps(opBytes*int64(ops), rWall)
	stat.ReadLatency = latencyOf(readDs)
	stat.ReadAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	return stat, nil
}

// redistResult carries one transport's redistribution stat plus the
// redistributed subfiles for the cross-transport equivalence check.
type redistResult struct {
	stat RedistModeStat
	subs [][]byte
}

// runRedistOnce drives write -> redistribute on one transport and
// times the redistribution. The source file is row blocks over four
// subfiles and the target row blocks over eight — the paper's
// change-the-I/O-node-count scenario, whose transfers are large
// contiguous extents and therefore exercise the wire data path rather
// than the segment walk.
func runRedistOnce(mode string, n int64, client *rpc.ClientConfig, reg *obs.Registry) (*redistResult, error) {
	cfg := clusterfile.DefaultConfig()
	var stops []func() error
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	if client != nil {
		var addrs []string
		for i := 0; i < 2; i++ {
			addr, stop, err := startBenchDaemon(reg)
			if err != nil {
				return nil, err
			}
			stops = append(stops, stop)
			addrs = append(addrs, addr)
		}
		tr, err := rpc.NewTransport(addrs, rpc.Options{Client: *client, Metrics: reg})
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		cfg.Transport = tr
	}
	w, err := NewWorkloadWithConfig("r", n, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := w.WriteAll(clusterfile.ToBufferCache); err != nil {
		return nil, err
	}
	rowPat, err := part.RowBlocks(n, n, 8)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nf, op, err := w.Cluster.StartRedistribute(w.File, "matrix.v2", part.MustFile(0, rowPat), nil, n*n)
	if err != nil {
		return nil, err
	}
	w.Cluster.RunAll()
	wall := time.Since(start)
	if op.Err != nil || !op.Done() {
		return nil, fmt.Errorf("%s redistribute: %v", mode, op.Err)
	}
	res := &redistResult{stat: RedistModeStat{
		Mode:   mode,
		MBps:   mbps(n*n, wall),
		WallMs: float64(wall.Nanoseconds()) / 1e6,
	}}
	for i := 0; i < nf.Phys.Pattern.Len(); i++ {
		b, err := nf.ReadSubfile(i)
		if err != nil {
			return nil, err
		}
		res.subs = append(res.subs, b)
	}
	if err := nf.Close(); err != nil {
		return nil, err
	}
	if err := w.File.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// runRedistMode reports the median of several timed redistributions
// after one untimed warmup — a single run's wall time is dominated by
// allocator and scheduler noise at these sizes.
func runRedistMode(mode string, n int64, reps int, client *rpc.ClientConfig, reg *obs.Registry) (*redistResult, error) {
	if _, err := runRedistOnce(mode, n, client, reg); err != nil { // warmup
		return nil, err
	}
	runs := make([]*redistResult, 0, reps)
	for i := 0; i < reps; i++ {
		res, err := runRedistOnce(mode, n, client, reg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].stat.MBps < runs[j].stat.MBps })
	med := runs[len(runs)/2]
	med.stat.Reps = reps
	return med, nil
}

// RunThroughput runs the full wire + redistribution benchmark and
// assembles the report.
func RunThroughput(opts ThroughputOptions) (*ThroughputReport, error) {
	opts.fillDefaults()
	rep := &ThroughputReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OpBytes:    opts.OpBytes,
		Ops:        opts.Ops,
		ChunkSize:  opts.ChunkSize,
		MatrixN:    opts.N,
		RedistSpec: "row blocks over 4 subfiles -> row blocks over 8 subfiles",
		Short:      opts.Short,
	}

	// Wire ablation: identical ops over the same connection path, one
	// frame per op (the chunk holds the whole payload) vs chunked
	// streams.
	mono := rpc.ClientConfig{ChunkSize: int(opts.OpBytes), MaxFrame: 2 * opts.OpBytes}
	streamed := rpc.ClientConfig{ChunkSize: opts.ChunkSize}
	for _, m := range []struct {
		name string
		cfg  rpc.ClientConfig
	}{{"monolithic", mono}, {"streamed", streamed}} {
		stat, err := runWireMode(m.name, m.cfg, opts.OpBytes, opts.Ops, opts.Metrics)
		if err != nil {
			return nil, err
		}
		rep.Wire = append(rep.Wire, stat)
	}
	rep.WriteSpeedup = rep.Wire[1].WriteMBps / rep.Wire[0].WriteMBps
	rep.ReadSpeedup = rep.Wire[1].ReadMBps / rep.Wire[0].ReadMBps

	// Redistribution: in-process reference plus both TCP transports.
	modes := []struct {
		name   string
		client *rpc.ClientConfig
	}{
		{"inproc", nil},
		{"tcp-monolithic", &mono},
		{"tcp-streamed", &streamed},
	}
	var results []*redistResult
	for _, m := range modes {
		res, err := runRedistMode(m.name, opts.N, opts.Reps, m.client, opts.Metrics)
		if err != nil {
			return nil, err
		}
		rep.Redistribute = append(rep.Redistribute, res.stat)
		results = append(results, res)
	}
	rep.RedistSpeedup = rep.Redistribute[2].MBps / rep.Redistribute[1].MBps

	// Equivalence: every transport must produce the same redistributed
	// subfiles, byte for byte.
	rep.ByteIdentical = true
	for _, res := range results[1:] {
		if len(res.subs) != len(results[0].subs) {
			rep.ByteIdentical = false
			break
		}
		for i := range res.subs {
			if !bytes.Equal(res.subs[i], results[0].subs[i]) {
				rep.ByteIdentical = false
			}
		}
	}
	// Elastic rebalance: add-node then drain-node through the metadata
	// service, bytes verified after each move.
	if opts.RebalanceBytes > 0 {
		stats, err := runRebalanceBench(opts.RebalanceBytes, opts.RebalanceStripe, opts.Metrics)
		if err != nil {
			return nil, err
		}
		rep.Rebalance = stats
		for _, s := range stats {
			if !s.ByteIdentical {
				rep.ByteIdentical = false
			}
		}
	}

	rep.FramePoolDiscards = rpc.FramePoolDiscards()
	rep.MsgBufDiscards = clusterfile.MsgBufDiscards()
	return rep, nil
}
