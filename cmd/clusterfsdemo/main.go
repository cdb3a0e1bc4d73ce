// Command clusterfsdemo runs a small Clusterfile deployment
// end-to-end and prints the write-path trace of the paper's Figure 5:
// four compute nodes with row-block views writing a matrix into a
// column-block physical partition, with the per-phase breakdown.
//
// Usage:
//
//	clusterfsdemo [-n 256] [-phys c|b|r] [-mode bc|disk] [-report]
//	              [-spans] [-metrics-addr host:port]
//	              [-remote host:port,...] [-redist]
//	              [-replication R] [-write-quorum Q]
//	              [-op-trace] [-slow-op DUR]
//
// With -remote the subfile bytes live on parafiled I/O-node daemons
// reached over real TCP (I/O nodes map onto the endpoints
// round-robin); without it they live in-process. Either way the same
// protocol runs and the verification is byte-for-byte.
//
// -op-trace turns on distributed tracing: every write/read/
// redistribute gets a 64-bit trace ID, the daemons' server-side spans
// come back over the wire, and the stitched cross-node trees print
// after the run (also served on -metrics-addr under /debug/trace).
// -slow-op 50ms logs a structured warning, with the trace ID, for any
// op slower than 50ms.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"parafile/internal/bench"
	"parafile/internal/clusterfile"
	"parafile/internal/meta"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
	"parafile/internal/rpc"
	"parafile/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterfsdemo: ")
	n := flag.Int64("n", 256, "matrix side in bytes (multiple of 4)")
	phys := flag.String("phys", "c", "physical layout: c (columns), b (square blocks), r (rows)")
	mode := flag.String("mode", "bc", "write mode: bc (buffer cache) or disk")
	dir := flag.String("dir", "", "store subfiles as real files in this directory (default: in-memory)")
	remote := flag.String("remote", "", "comma-separated parafiled endpoints (host:port,...); subfile bytes live on the daemons instead of in-process")
	metaAddr := flag.String("meta", "", "parafilemd metadata endpoint(s), host:port[,host:port...]; open by name through the namespace, write a deterministic pattern and verify it (ignores the workload flags)")
	metaFile := flag.String("meta-file", "demo", "file name in the metadata namespace for -meta")
	metaVerify := flag.Bool("meta-verify", false, "with -meta: skip the write and only verify the pattern a previous run wrote — proves the bytes survived a rebalance untouched")
	replication := flag.Int("replication", 1, "materialize every subfile on this many I/O nodes (reads fail over, writes fan out)")
	writeQuorum := flag.Int("write-quorum", 0, "replica acks a subfile's write needs (0 = all replicas); a smaller quorum keeps writes available while a node is down")
	chunkKB := flag.Int("chunk-kb", 0, "wire chunk in KiB for -remote: larger transfers stream in chunks (0 = default 1024)")
	doRedist := flag.Bool("redist", false, "after the read-back, redistribute the file to a row-block layout and verify it")
	trace := flag.Bool("trace", false, "print the virtual-time event trace of the write")
	opTrace := flag.Bool("op-trace", false, "distributed tracing: stitch per-op cross-node span trees (client + daemon spans with -remote) and print them after the run")
	slowOp := flag.Duration("slow-op", 0, "log a structured warning for client ops slower than this (0 disables; implies -op-trace IDs on the log lines)")
	report := flag.Bool("report", false, "print the collected metrics as a table after the run")
	spans := flag.Bool("spans", false, "print the wall-clock span tree of the run")
	metricsAddr := flag.String("metrics-addr", "",
		"serve the collected metrics over HTTP on this address after the run (/metrics Prometheus text, /metrics.json JSON, /report table, /debug/pprof profiles, /debug/trace); keeps the process alive")
	flag.Parse()

	if *n < 4 || *n%4 != 0 {
		log.Fatalf("matrix side %d must be a positive multiple of 4", *n)
	}
	if *metaAddr != "" {
		if err := metaDemo(*metaAddr, *metaFile, *n**n, *replication, *metaVerify); err != nil {
			log.Fatal(err)
		}
		return
	}
	wmode := clusterfile.ToBufferCache
	if *mode == "disk" {
		wmode = clusterfile.ToDisk
	} else if *mode != "bc" {
		log.Fatalf("unknown mode %q", *mode)
	}

	if *remote != "" && *dir != "" {
		log.Fatal("-remote and -dir are mutually exclusive: with -remote the daemons own the storage")
	}

	reg := obs.NewRegistry()
	root := obs.StartSpan("clusterfsdemo")
	cfg := clusterfile.DefaultConfig()
	cfg.Metrics = reg
	cfg.Trace = root
	cfg.Replication = *replication
	cfg.WriteQuorum = *writeQuorum
	var opTracer *obs.Tracer
	if *opTrace || *slowOp > 0 {
		opTracer = obs.NewTracer("client", 32)
		cfg.Tracer = opTracer
		cfg.Log = obs.NewLogger(os.Stderr, "client")
		cfg.SlowOpThreshold = *slowOp
	}
	if *dir != "" {
		cfg.Storage = clusterfile.DirStorageFactory(*dir)
	}
	where := "in-memory subfiles"
	if *dir != "" {
		where = "subfiles under " + *dir
	}
	if *remote != "" {
		endpoints := strings.Split(*remote, ",")
		// With replication the replica layer can work around an
		// unreachable daemon, so open degraded instead of refusing the
		// whole cluster; unreplicated files keep the strict open.
		client := rpc.ClientConfig{ChunkSize: *chunkKB << 10, Trace: opTracer != nil}
		tr, err := rpc.NewTransport(endpoints, rpc.Options{Client: client, Metrics: reg, DegradedOpen: *replication > 1})
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		cfg.Transport = tr
		where = fmt.Sprintf("subfiles on %d parafiled daemon(s) at %s", len(endpoints), *remote)
	}
	w, err := bench.NewWorkloadWithConfig(*phys, *n, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Clusterfile demo: %d×%d byte matrix, physical layout %q, logical row blocks\n",
		*n, *n, *phys)
	if *replication > 1 {
		where += fmt.Sprintf(", %d-way replicated", *replication)
	}
	fmt.Printf("cluster: 4 compute nodes + 4 I/O nodes (Myrinet/IDE 2002 cost models), %s\n\n", where)

	fmt.Println("View set (intersections + projections, computed once):")
	for i, v := range w.Views {
		fmt.Printf("  compute node %d: view overlaps subfiles %v, t_i = %v\n",
			i, v.Subfiles(), v.TIntersect)
	}

	var tracer *sim.Tracer
	if *trace {
		tracer = w.Cluster.EnableTrace()
	}
	ops, err := w.WriteAll(wmode)
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		fmt.Println("\nVirtual-time trace of the write:")
		fmt.Print(tracer.Format())
	}
	fmt.Printf("\nWrite operation (mode %s):\n", wmode)
	for i, op := range ops {
		if op.Err != nil {
			log.Fatalf("node %d write: %v", i, op.Err)
		}
		s := op.Stats
		fmt.Printf("  node %d: t_m=%v  t_g(model)=%dµs  msgs=%d (%d bytes, %d zero-copy)  t_net=%dµs\n",
			i, s.TMap, s.GatherModelNs/sim.Microsecond, s.Messages, s.BytesSent,
			s.ContiguousSends, s.TNet/sim.Microsecond)
		if op.Degraded != nil {
			fmt.Printf("  node %d: degraded (quorum met, stale placements remain): %v\n", i, op.Degraded)
		}
	}

	// Verify the file content byte-for-byte.
	if err := verifyFile(w.File, w.Img, *n**n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverification: all %d bytes of the matrix landed in the right subfile positions\n",
		*n**n)

	// Read everything back through the views.
	per := *n * *n / 4
	for i, v := range w.Views {
		out := make([]byte, per)
		op, err := v.StartRead(0, per-1, out)
		if err != nil {
			log.Fatal(err)
		}
		w.Cluster.RunAll()
		if op.Err != nil {
			log.Fatal(op.Err)
		}
		for j := range out {
			if out[j] != w.ViewBuf(i)[j] {
				log.Fatalf("read-back mismatch at node %d byte %d", i, j)
			}
		}
	}
	fmt.Println("read-back: every compute node read its view back intact")

	if *doRedist {
		rowPat, err := bench.LayoutPattern("r", *n)
		if err != nil {
			log.Fatal(err)
		}
		nf, rop, err := w.Cluster.StartRedistribute(w.File, "matrix.v2", part.MustFile(0, rowPat), nil, *n**n)
		if err != nil {
			log.Fatal(err)
		}
		w.Cluster.RunAll()
		if rop.Err != nil {
			log.Fatal(rop.Err)
		}
		if err := verifyFile(nf, w.Img, *n**n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("redistribute: %q → row-block layout, %d msgs (%d bytes) I/O node to I/O node, verified byte-for-byte\n",
			"matrix.v2", rop.Stats.Messages, rop.Stats.Bytes)
		if err := nf.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if err := w.File.Close(); err != nil {
		log.Fatal(err)
	}

	root.End()
	if *report {
		fmt.Println()
		fmt.Print(obs.Report(reg))
	}
	if *spans {
		fmt.Println("\nWall-clock spans of the run:")
		fmt.Print(root.Format())
	}
	if *opTrace {
		fmt.Println("\nDistributed traces (per-op cross-node span trees):")
		for _, tree := range opTracer.Recent() {
			fmt.Print(tree.Format())
		}
	}
	if *metricsAddr != "" {
		addr, _, err := obs.ServeWith(*metricsAddr, reg, opTracer)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "clusterfsdemo: serving metrics on http://%s/metrics (also /metrics.json, /report); interrupt to exit\n", addr)
		select {}
	}
}

// metaDemo exercises the metadata-managed path: open (or create) a
// file by name at the metadata service, write a deterministic pattern
// through the cached placement map, read it back and verify. Run it
// before and after `parafilectl add-node`/`drain-node` to check a
// rebalance kept every byte: the pattern is a pure function of the
// offset, so any tear or misplacement shows up as a mismatch.
func metaDemo(addr, name string, size int64, replication int, verifyOnly bool) error {
	ctx := context.Background()
	cl := meta.Dial(addr, meta.Options{Metrics: obs.NewRegistry()})
	defer cl.Close()
	f, err := cl.Open(ctx, name)
	if errors.Is(err, rpc.ErrUnknownFile) && !verifyOnly {
		f, err = cl.Create(ctx, name, 0, replication)
	}
	if err != nil {
		return err
	}
	defer f.Close()
	p := f.Placement()
	fmt.Printf("metadata file %q: epoch %d, %d subfiles x %d B stripes, replication %d\n",
		p.Name, p.Epoch, len(p.Assign), p.StripeBytes, p.Replication)
	fmt.Printf("nodes: %s\n", strings.Join(p.Nodes, ", "))

	buf := make([]byte, size)
	for i := range buf {
		buf[i] = demoByte(int64(i))
	}
	if !verifyOnly {
		if err := f.WriteAt(ctx, buf, 0); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	} else if f.Length() < size {
		return fmt.Errorf("verify: file is %d bytes, want at least %d — run once without -meta-verify first", f.Length(), size)
	}
	out := make([]byte, size)
	if err := f.ReadAt(ctx, out, 0); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	for i := range out {
		if out[i] != buf[i] {
			return fmt.Errorf("verification FAILED at byte %d: got %#x want %#x", i, out[i], buf[i])
		}
	}
	if verifyOnly {
		fmt.Printf("verified: %d bytes read back intact at epoch %d, no rewrite\n",
			size, f.Placement().Epoch)
	} else {
		fmt.Printf("verified: %d bytes written and read back intact through epoch %d\n",
			size, f.Placement().Epoch)
	}
	return nil
}

// demoByte is the deterministic pattern byte at a file offset.
func demoByte(off int64) byte { return byte(off*131 + 7) }

// verifyFile joins the stored subfiles (local or fetched from the
// daemons) and compares them byte-for-byte against the written image.
func verifyFile(f *clusterfile.File, want []byte, length int64) error {
	bufs := make([][]byte, f.Phys.Pattern.Len())
	for i := range bufs {
		b, err := f.ReadSubfile(i)
		if err != nil {
			return err
		}
		bufs[i] = b
	}
	img, err := redist.JoinFile(f.Phys, bufs, length)
	if err != nil {
		return err
	}
	for i := range img {
		if img[i] != want[i] {
			return fmt.Errorf("verification FAILED at byte %d", i)
		}
	}
	return nil
}
