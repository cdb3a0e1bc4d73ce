package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"parafile/internal/baseline"
	"parafile/internal/clusterfile"
	"parafile/internal/core"
	"parafile/internal/meta"
	"parafile/internal/part"
	"parafile/internal/qos"
	"parafile/internal/redist"
	"parafile/internal/rpc"
)

// probes.go calls single layers' public functions directly, in this
// process, on the inputs the workloads use (the 4096×4096 matrix under
// the col-block / row-block pair, 1 MiB wire chunks, 4 KiB metadata
// records). A probe isolates a layer's own cost from the stack around
// it; counts taken here repeat exactly from run to run.

const probeReps = 5

// timeMedian runs f reps times and returns the median wall time.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// probeInputs is what the probes work on.
type probeInputs struct {
	ref      []byte     // the matrix, from the run's seed
	col, row *part.File // the repartition pair
	scratch  string     // a directory the probes may create files in
}

// runProbes returns the probe (P) layer metrics.
func runProbes(seed int64, scratch string) (map[string]float64, error) {
	in := probeInputs{
		ref: env{seed: seed}.randomBytes(0, 7, matrixBytes),
		col: matrixFile(part.ColBlocks), row: matrixFile(part.RowBlocks),
		scratch: scratch,
	}
	out := make(map[string]float64)
	for _, probe := range []func(probeInputs, map[string]float64) error{
		probeRedist, probeMapper, probeStore, probeFrames, probeQoS, probeMetaStore,
	} {
		if err := probe(in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeRedist compiles and executes the repartition pair in process:
// the ceiling for repartition_mbps, beside the byte-wise strawman.
func probeRedist(in probeInputs, out map[string]float64) error {
	var plan *redist.Plan
	d, err := timeMedian(probeReps, func() (err error) {
		plan, err = redist.CompilePlan(in.col, in.row, redist.CompileOptions{})
		return err
	})
	if err != nil {
		return err
	}
	out["redist.plan_compile_ms"] = ms(d)
	out["redist.plan_coalesced_segments"] = float64(plan.SegmentsPerPeriod())
	raw, err := redist.CompilePlan(in.col, in.row, redist.CompileOptions{NoCoalesce: true})
	if err != nil {
		return err
	}
	out["redist.plan_segments"] = float64(raw.SegmentsPerPeriod())

	src := redist.SplitFile(in.col, in.ref)
	want := redist.SplitFile(in.row, in.ref)
	dst := make([][]byte, len(want))
	for i := range dst {
		dst[i] = make([]byte, len(want[i]))
	}
	if d, err = timeMedian(probeReps, func() error { return plan.Execute(src, dst, matrixBytes) }); err != nil {
		return err
	}
	for i := range dst {
		if !bytes.Equal(dst[i], want[i]) {
			return fmt.Errorf("probe: in-process plan execution produced a wrong element %d", i)
		}
	}
	out["redist.inproc_mbps"] = mbps(matrixBytes, d)

	// Byte-wise mapping costs ~100 ns per byte, so the strawman moves
	// only the first MiB (256 matrix rows) of the same pair.
	const strawBytes = mib
	if d, err = timeMedian(probeReps, func() error {
		return baseline.BytewiseRedistribute(in.col, in.row, src, dst, strawBytes)
	}); err != nil {
		return err
	}
	out["baseline.bytewise_mbps"] = mbps(strawBytes, d)
	return nil
}

// probeMapper times MAP and MAP⁻¹ over a rank's row-block view.
func probeMapper(in probeInputs, out map[string]float64) error {
	m, err := core.NewMapper(in.row, 1)
	if err != nil {
		return err
	}
	const n = 1 << 16
	size := m.ElementSize()
	d, err := timeMedian(probeReps, func() error {
		for i := int64(0); i < n; i++ {
			x, err := m.MapInv(i * 61 % size)
			if err != nil {
				return err
			}
			if _, err := m.Map(x); err != nil {
				return err
			}
		}
		return nil
	})
	out["core.map_ns"] = float64(d) / (2 * n)
	return err
}

// countingStorage counts the store calls a scatter or gather issues.
type countingStorage struct {
	clusterfile.Storage
	calls int
}

func (c *countingStorage) WriteAt(p []byte, off int64) error {
	c.calls++
	return c.Storage.WriteAt(p, off)
}

func (c *countingStorage) ReadAt(p []byte, off int64) error {
	c.calls++
	return c.Storage.ReadAt(p, off)
}

// probeStore runs ScatterRange/GatherRange on a file-backed store with
// the projection a daemon scatters under when col-blocks become
// row-blocks (1 KiB runs at a 4 KiB stride): what the daemon does per
// handle call, without the wire. The checkpoint and restart of
// ckpt_restart reach the daemons with contiguous subfile-side
// projections; the repartition is where stores see fine segments.
func probeStore(in probeInputs, out map[string]float64) error {
	plan, err := redist.CompilePlan(in.col, in.row, redist.CompileOptions{})
	if err != nil {
		return err
	}
	xfer := &plan.Transfers[0]
	_, hi, n := xfer.Windows(plan.Period, matrixBytes)
	projS := xfer.DstProj
	st, err := clusterfile.DirStorageFactory(in.scratch)("probe", 0)
	if err != nil {
		return err
	}
	defer clusterfile.RemoveStorage(st)
	store := &countingStorage{Storage: st}
	data := in.ref[:n]
	if err := st.EnsureLen(hi + 1); err != nil {
		return err
	}
	d, err := timeMedian(probeReps, func() error {
		return clusterfile.ScatterRange(store, data, projS, 0, hi)
	})
	if err != nil {
		return err
	}
	out["clusterfile.scatter_store_mbps"] = mbps(int64(len(data)), d)
	out["clusterfile.store_calls_per_mib"] = float64(store.calls) / probeReps / (float64(len(data)) / mib)
	got := make([]byte, len(data))
	if d, err = timeMedian(probeReps, func() error {
		return clusterfile.GatherRange(got, store, projS, 0, hi)
	}); err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("probe: gather did not return what scatter stored")
	}
	out["clusterfile.gather_store_mbps"] = mbps(int64(len(data)), d)
	return nil
}

// probeFrames encodes and decodes one streamed-path chunk's worth of
// write request, CRC included.
func probeFrames(in probeInputs, out map[string]float64) error {
	req := &rpc.WriteSegsReq{File: "probe", Subfile: 1, Lo: 0, Hi: mib - 1, Data: in.ref[:mib], Epoch: 1 << 20}
	var wire bytes.Buffer
	var body []byte
	d, err := timeMedian(probeReps, func() error {
		wire.Reset()
		body = rpc.AppendWriteSegs(body[:0], req)
		return rpc.WriteFrameV(&wire, body, rpc.MaxProtoVersion)
	})
	if err != nil {
		return err
	}
	out["rpc.frame_encode_ns_per_mib"] = float64(d)
	frame := wire.Bytes()
	d, err = timeMedian(probeReps, func() error {
		body, err := rpc.ReadFrame(bytes.NewReader(frame), 0)
		if err != nil {
			return err
		}
		defer rpc.ReleaseFrame(body)
		_, payload, err := rpc.ParseFrame(body)
		if err != nil {
			return err
		}
		got, err := rpc.DecodeWriteSegs(payload)
		if err != nil {
			return err
		}
		if len(got.Data) != mib {
			return fmt.Errorf("probe: decoded %d data bytes of %d", len(got.Data), mib)
		}
		return nil
	})
	out["rpc.frame_decode_ns_per_mib"] = float64(d)
	return err
}

// probeQoS times an uncontended admission and release with the
// daemons' limiter settings.
func probeQoS(in probeInputs, out map[string]float64) error {
	l := qos.NewLimiter(qos.Config{MaxInFlight: qosInflight})
	ctx := context.Background()
	const n = 1 << 14
	d, err := timeMedian(probeReps, func() error {
		for i := 0; i < n; i++ {
			release, err := l.Acquire(ctx, "", qos.OpWrite, metaOpBytes)
			if err != nil {
				return err
			}
			release()
		}
		return nil
	})
	out["qos.acquire_ns"] = float64(d) / n
	return err
}

// probeMetaStore times one durable metadata record: Store.Extend on a
// one-node store is a log append plus its fsync, with no quorum.
func probeMetaStore(in probeInputs, out map[string]float64) error {
	dir, err := os.MkdirTemp(in.scratch, "mdprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := meta.OpenStore(dir, meta.StoreConfig{})
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	mf := &rpc.MetaFile{Name: "probe", StripeBytes: stripeBytes, Replication: 1,
		Epoch: 1, StoreName: "probe@1", Nodes: []string{"n0"}, Assign: []int{0}}
	if err := st.Create(ctx, mf); err != nil {
		return err
	}
	length := int64(0)
	d, err := timeMedian(4*probeReps, func() error {
		length += metaOpBytes
		_, err := st.Extend(ctx, "probe", length)
		return err
	})
	out["meta.store_append_fsync_ms"] = ms(d)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probeOpen times rpc.Transport.Open of a 4-subfile file against the
// live data daemons: one CreateFile round trip per daemon.
func probeOpen(e env) (float64, error) {
	tr, err := rpc.NewTransport(e.topo.dataAddrs(), rpc.Options{})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	phys := matrixFile(part.ColBlocks)
	assign := []int{0, 1, 2, 0}
	i := 0
	d, err := timeMedian(probeReps, func() error {
		name := fmt.Sprintf("probe-open-%d", i)
		i++
		if _, err := tr.Open(e.ctx, name, phys, assign); err != nil {
			return err
		}
		return nil
	})
	for ; i > 0; i-- {
		if rerr := tr.RemoveStore(e.ctx, fmt.Sprintf("probe-open-%d", i-1)); rerr != nil && err == nil {
			err = rerr
		}
	}
	return ms(d), err
}
