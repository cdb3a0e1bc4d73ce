// Command parafilectl inspects partitions written in HPF-style
// notation — it describes the nested FALLS representation of a
// distribution, computes the matching degree between two partitions of
// the same array (the §9 metric), and ranks candidate physical layouts
// for a given logical access pattern — administers replicated files on
// live parafiled daemons (status, scrub, repair), reads live traces
// (top, trace), and drives the metadata service: namespace management
// (create, ls, rm), membership (add-node, drain-node, decommission)
// and online rebalancing.
//
// Usage:
//
//	parafilectl describe -dims 16x16 -dist 'BLOCK(4),*' [-elem 1] [-viz]
//	parafilectl match    -dims 256x256 -logical 'BLOCK(4),*' -physical '*,BLOCK(4)'
//	parafilectl rank     -dims 256x256 -logical 'BLOCK(4),*' \
//	    -candidates 'BLOCK(4),*;*,BLOCK(4);BLOCK(2),BLOCK(2)'
//	parafilectl status -remote host:port,... -file matrix -dims 256x256 \
//	    -dist '*,BLOCK(64)' -replication 2
//	parafilectl status -meta host:port        (namespace, nodes, epochs)
//	parafilectl scrub  ... (same flags as status -remote; exit 1 when replicas diverge)
//	parafilectl repair ... (same flags; heals divergent replicas)
//	parafilectl top    -debug host:port,...   (live op view per node)
//	parafilectl trace  -debug host:port <trace-id|op>
//	parafilectl qos    -debug host:port,...   (admission-control status)
//	parafilectl create -meta host:port -file name [-stripe-kb 64] [-replication 1]
//	parafilectl ls     -meta host:port
//	parafilectl rm     -meta host:port -file name
//	parafilectl add-node     -meta host:port -node host:port
//	parafilectl drain-node   -meta host:port -node host:port
//	parafilectl decommission -meta host:port -node host:port
//
// The maintenance verbs reopen the file degraded — a dead daemon shows
// up as failed placements in status and scrub output instead of
// refusing the connection, which is exactly when you want to look.
//
// add-node and drain-node change the membership at the metadata
// service and immediately rebalance every file onto the new active set
// as a paper redistribution (MAP_new ∘ MAP_old⁻¹): reads are served
// from the old placement for the whole move, the epoch flips at the
// service's compare-and-swap commit, and per-file bytes moved are
// printed as the rebalance progresses. decommission removes a node
// once draining has emptied it.
//
// Unknown verbs and malformed flags print usage on stderr and exit
// non-zero; every verb answers -h with its own flag summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/hpf"
	"parafile/internal/match"
	"parafile/internal/meta"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/qos"
	"parafile/internal/redist"
	"parafile/internal/rpc"
	"parafile/internal/viz"
)

// verb is one subcommand: setup registers its flags on a pre-built
// FlagSet and returns the action to run once parsing succeeded, so
// every verb shares one parsing, usage and exit-code path.
type verb struct {
	name     string
	synopsis string
	summary  string
	setup    func(fs *flag.FlagSet) func() error
}

var verbs = []verb{
	{"describe", "describe -dims NxM -dist 'DIST' [-elem N] [-viz]",
		"explain a distribution's nested FALLS representation", describeVerb},
	{"match", "match -dims NxM -logical 'DIST' -physical 'DIST' [-elem N]",
		"matching degree between a logical and a physical partition", matchVerb},
	{"rank", "rank -dims NxM -logical 'DIST' -candidates 'D1;D2;...' [-elem N]",
		"rank candidate physical layouts for an access pattern", rankVerb},
	{"plan", "plan -dims NxM -from 'DIST' -to 'DIST' [-elem N]",
		"print the redistribution communication schedule", planVerb},
	{"status", "status -remote host:port,... -file NAME -dims NxM -dist 'DIST' | status -meta host:port",
		"list replica placements, or the metadata namespace", statusVerb},
	{"scrub", "scrub -remote host:port,... -file NAME -dims NxM -dist 'DIST'",
		"compare replicas by checksum (exit 1 on divergence)", scrubVerb},
	{"repair", "repair -remote host:port,... -file NAME -dims NxM -dist 'DIST'",
		"heal divergent replicas from a healthy sibling", repairVerb},
	{"top", "top -debug host:port,... [-n N]",
		"live per-node view of in-flight and recent operations", topVerb},
	{"trace", "trace -debug host:port <trace-id|op>",
		"print one stitched cross-node span tree", traceVerb},
	{"qos", "qos -debug host:port,...",
		"per-node admission control and fair-share status", qosVerb},
	{"create", "create -meta host:port -file NAME [-stripe-kb N] [-replication N]",
		"register a file in the metadata namespace", createVerb},
	{"ls", "ls -meta host:port",
		"list the metadata namespace", lsVerb},
	{"rm", "rm -meta host:port -file NAME",
		"remove a file from the metadata namespace", rmVerb},
	{"add-node", "add-node -meta host:port -node host:port",
		"register a data node and rebalance onto it", addNodeVerb},
	{"drain-node", "drain-node -meta host:port -node host:port",
		"exclude a data node from placements and rebalance off it", drainNodeVerb},
	{"decommission", "decommission -meta host:port -node host:port",
		"remove a drained, empty data node", decommissionVerb},
	{"meta-status", "meta-status -meta host:port[,host:port...]",
		"replication status of every metadata group member", metaStatusVerb},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("parafilectl: ")
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	switch name {
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return
	}
	var v *verb
	for i := range verbs {
		if verbs[i].name == name {
			v = &verbs[i]
			break
		}
	}
	if v == nil {
		fmt.Fprintf(os.Stderr, "parafilectl: unknown verb %q\n\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	run := v.setup(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: parafilectl %s\n", v.synopsis)
		fs.PrintDefaults()
	}
	switch err := fs.Parse(os.Args[2:]); {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		os.Exit(2) // flag already printed the error and usage on stderr
	}
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: parafilectl <verb> [flags]")
	fmt.Fprintln(w, "\nverbs:")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-14s %s\n", v.name, v.summary)
	}
	fmt.Fprintln(w, "\nrun `parafilectl <verb> -h` for the verb's flags")
}

func describeVerb(fs *flag.FlagSet) func() error {
	dims := fs.String("dims", "", "array dimensions, e.g. 256x256")
	dist := fs.String("dist", "", "distribution, e.g. 'BLOCK(4),*'")
	elem := fs.Int64("elem", 1, "element size in bytes")
	draw := fs.Bool("viz", false, "render each element's byte selection (small arrays only)")
	return func() error {
		pat, err := hpf.Pattern(*dims, *dist, *elem)
		if err != nil {
			return err
		}
		fmt.Printf("distribution %s of %s (%d-byte elements)\n", *dist, *dims, *elem)
		fmt.Printf("pattern: %d elements, %d bytes per repetition\n\n", pat.Len(), pat.Size())
		for e := 0; e < pat.Len(); e++ {
			el := pat.Element(e)
			fmt.Printf("  %-8s size %8d B   %6d segments   depth %d   %s\n",
				el.Name, el.Set.Size(), el.Set.SegmentCount(), el.Set.Depth(), el.Set)
		}
		if *draw {
			if pat.Size() > 512 {
				return errors.New("-viz is limited to patterns of at most 512 bytes")
			}
			fmt.Println()
			fmt.Println(viz.Ruler(pat.Size()))
			for e := 0; e < pat.Len(); e++ {
				fmt.Printf("%s   %s\n", viz.RenderSet(pat.Element(e).Set, pat.Size()), pat.Element(e).Name)
			}
		}
		return nil
	}
}

func matchVerb(fs *flag.FlagSet) func() error {
	dims := fs.String("dims", "", "array dimensions")
	logical := fs.String("logical", "", "logical (in-memory) distribution")
	physical := fs.String("physical", "", "physical (on-disk) distribution")
	elem := fs.Int64("elem", 1, "element size in bytes")
	return func() error {
		lf, err := buildFile(*dims, *logical, *elem)
		if err != nil {
			return err
		}
		pf, err := buildFile(*dims, *physical, *elem)
		if err != nil {
			return err
		}
		d, err := match.Compute(lf, pf)
		if err != nil {
			return err
		}
		fmt.Printf("logical  %s\nphysical %s\n\n", *logical, *physical)
		fmt.Printf("matching degree: %.5f\n", d.Score)
		fmt.Printf("communication pairs: %d (%d fully contiguous)\n", d.Pairs, d.ContiguousPairs)
		fmt.Printf("contiguous runs per pattern period: %d (mean %0.f bytes)\n",
			d.RunsPerPeriod, d.MeanRunBytes)
		switch {
		case d.Score == 1:
			fmt.Println("verdict: optimal match — every access is one contiguous transfer")
		case d.Score > 0.1:
			fmt.Println("verdict: moderate match — some gather/scatter needed")
		default:
			fmt.Println("verdict: poor match — consider redistributing the file (see examples/clusterio)")
		}
		return nil
	}
}

func rankVerb(fs *flag.FlagSet) func() error {
	dims := fs.String("dims", "", "array dimensions")
	logical := fs.String("logical", "", "logical (in-memory) distribution")
	candidates := fs.String("candidates", "", "semicolon-separated physical distributions")
	elem := fs.Int64("elem", 1, "element size in bytes")
	return func() error {
		lf, err := buildFile(*dims, *logical, *elem)
		if err != nil {
			return err
		}
		var names []string
		var files []*part.File
		for _, c := range strings.Split(*candidates, ";") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			f, err := buildFile(*dims, c, *elem)
			if err != nil {
				return err
			}
			names = append(names, c)
			files = append(files, f)
		}
		if len(files) == 0 {
			return errors.New("no candidates given")
		}
		order, degrees, err := match.PredictRank(lf, files)
		if err != nil {
			return err
		}
		fmt.Printf("ranking physical layouts for logical %s over %s:\n\n", *logical, *dims)
		for rank, i := range order {
			fmt.Printf("  %d. %-24s score %.5f  pairs %d  runs/period %d\n",
				rank+1, names[i], degrees[i].Score, degrees[i].Pairs, degrees[i].RunsPerPeriod)
		}
		return nil
	}
}

// planVerb prints the communication schedule for redistributing an
// array between two distributions — the message lists a generated
// redistribution routine would post.
func planVerb(fs *flag.FlagSet) func() error {
	dims := fs.String("dims", "", "array dimensions")
	from := fs.String("from", "", "source distribution")
	to := fs.String("to", "", "destination distribution")
	elem := fs.Int64("elem", 1, "element size in bytes")
	return func() error {
		src, err := buildFile(*dims, *from, *elem)
		if err != nil {
			return err
		}
		dst, err := buildFile(*dims, *to, *elem)
		if err != nil {
			return err
		}
		plan, err := redist.NewPlan(src, dst)
		if err != nil {
			return err
		}
		length := src.Pattern.Size()
		sched, err := plan.BuildSchedule(length)
		if err != nil {
			return err
		}
		fmt.Printf("redistribution %s -> %s over %s (%d bytes)\n\n", *from, *to, *dims, length)
		fmt.Printf("%-8s %-8s %12s %10s\n", "from", "to", "bytes", "runs")
		for _, m := range sched.Messages {
			fmt.Printf("%-8d %-8d %12d %10d\n", m.From, m.To, m.Bytes, m.Runs)
		}
		fmt.Printf("\n%d messages, %d bytes total, max fan-out %d\n",
			len(sched.Messages), sched.TotalBytes(), sched.MaxFanOut())
		return nil
	}
}

// remoteFlags is the shared flag set of the replica-maintenance verbs:
// where the daemons are, which file to open, and the file's geometry
// (the daemons store bytes, not metadata — the caller names the layout
// the file was created with).
type remoteFlags struct {
	remote *string
	file   *string
	dims   *string
	dist   *string
	elem   *int64
	nodes  *int
	repl   *int
	seg    *int64
	chunk  *int
}

// clientConfig translates the chunk flag into the per-node client
// template.
func (rf *remoteFlags) clientConfig() rpc.ClientConfig {
	return rpc.ClientConfig{ChunkSize: *rf.chunk << 10}
}

func addRemoteFlags(fs *flag.FlagSet) *remoteFlags {
	return &remoteFlags{
		remote: fs.String("remote", "", "comma-separated parafiled endpoints (host:port,...)"),
		file:   fs.String("file", "", "file name as created on the daemons"),
		dims:   fs.String("dims", "", "array dimensions, e.g. 256x256"),
		dist:   fs.String("dist", "", "physical distribution the file was created with"),
		elem:   fs.Int64("elem", 1, "element size in bytes"),
		nodes:  fs.Int("nodes", 4, "I/O node count of the deployment"),
		repl:   fs.Int("replication", 1, "replica count the file was created with"),
		seg:    fs.Int64("seg-bytes", clusterfile.DefaultScrubSegmentBytes, "scrub segment granularity in bytes"),
		chunk:  fs.Int("chunk-kb", 0, "wire chunk in KiB: larger transfers travel as chunk-sized pieces (0 = default 1024)"),
	}
}

// openRemote reopens the named file on the daemons without truncation
// and degraded (dead daemons become failed placements, not a fatal
// dial), returning the file and a teardown closure.
func (rf *remoteFlags) openRemote() (*clusterfile.File, func(), error) {
	if *rf.remote == "" || *rf.file == "" {
		return nil, nil, errors.New("need -remote and -file")
	}
	phys, err := buildFile(*rf.dims, *rf.dist, *rf.elem)
	if err != nil {
		return nil, nil, err
	}
	tr, err := rpc.NewTransport(strings.Split(*rf.remote, ","), rpc.Options{
		Client:       rf.clientConfig(),
		Reopen:       true,
		DegradedOpen: true,
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := clusterfile.DefaultConfig()
	cfg.IONodes = *rf.nodes
	cfg.Replication = *rf.repl
	cfg.Transport = tr
	c, err := clusterfile.New(cfg)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	f, err := c.CreateFile(*rf.file, phys, nil)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	return f, func() {
		f.Close()
		tr.Close()
	}, nil
}

func statusVerb(fs *flag.FlagSet) func() error {
	rf := addRemoteFlags(fs)
	metaAddr := fs.String("meta", "", "parafilemd metadata service endpoint (host:port); namespace view instead of per-replica view")
	return func() error {
		if *metaAddr != "" {
			return metaStatus(&metaFlags{meta: metaAddr, file: rf.file})
		}
		f, done, err := rf.openRemote()
		if err != nil {
			return err
		}
		defer done()
		ctx := context.Background()
		fmt.Printf("file %q: %d subfiles, replication %d\n\n", f.Name, f.Phys.Pattern.Len(), f.Replication)
		fmt.Printf("%-8s %-8s %-8s %-20s %s\n", "subfile", "replica", "node", "store", "length")
		failed := 0
		for s := 0; s < f.Phys.Pattern.Len(); s++ {
			for r := 0; r < f.Replication; r++ {
				length := "?"
				if n, err := f.ReplicaLen(ctx, r, s); err != nil {
					length = "FAILED: " + err.Error()
					failed++
				} else {
					length = fmt.Sprintf("%d", n)
				}
				fmt.Printf("%-8d %-8d %-8d %-20s %s\n",
					s, r, f.Placement[r][s], clusterfile.ReplicaName(f.Name, r), length)
			}
		}
		if failed > 0 {
			fmt.Printf("\n%d placement(s) unreachable — scrub and repair once the node is back\n", failed)
			os.Exit(1)
		}
		fmt.Println("\nall placements reachable")
		return nil
	}
}

func scrubVerb(fs *flag.FlagSet) func() error {
	rf := addRemoteFlags(fs)
	return func() error {
		f, done, err := rf.openRemote()
		if err != nil {
			return err
		}
		defer done()
		rep, err := f.ScrubSegments(context.Background(), *rf.seg)
		if err != nil {
			return err
		}
		printScrub(rep)
		if !rep.Clean() {
			os.Exit(1)
		}
		return nil
	}
}

func repairVerb(fs *flag.FlagSet) func() error {
	rf := addRemoteFlags(fs)
	return func() error {
		f, done, err := rf.openRemote()
		if err != nil {
			return err
		}
		defer done()
		stats, rep, err := f.Repair(context.Background())
		if rep != nil {
			printScrub(rep)
		}
		if err != nil {
			return err
		}
		if rep.Clean() {
			fmt.Println("nothing to repair")
			return nil
		}
		fmt.Printf("repaired %d replica(s) across %d subfile(s), %d bytes rewritten\n",
			stats.Replicas, stats.Subfiles, stats.Bytes)
		return nil
	}
}

func printScrub(rep *clusterfile.ScrubReport) {
	fmt.Printf("scrub: %d subfiles, %d segments, %d bytes checked\n",
		rep.Subfiles, rep.Segments, rep.Checked)
	if rep.Clean() {
		fmt.Println("all replicas agree")
		return
	}
	fmt.Printf("%d mismatching replica segment(s):\n", len(rep.Mismatches))
	for _, m := range rep.Mismatches {
		if m.Err != nil {
			fmt.Printf("  subfile %d replica %d (node %d) [%d,%d): UNREADABLE: %v\n",
				m.Subfile, m.Replica, m.IONode, m.Off, m.Off+m.Len, m.Err)
			continue
		}
		fmt.Printf("  subfile %d replica %d (node %d) [%d,%d): crc %08x, want %08x\n",
			m.Subfile, m.Replica, m.IONode, m.Off, m.Off+m.Len, m.Got, m.Want)
	}
}

// metaFlags is the shared flag set of the metadata verbs.
type metaFlags struct {
	meta *string
	file *string
	node *string
}

func addMetaFlags(fs *flag.FlagSet) *metaFlags {
	return &metaFlags{
		meta: fs.String("meta", "", "parafilemd metadata endpoint(s), host:port[,host:port...] for a replicated group"),
		file: fs.String("file", "", "file name in the metadata namespace"),
		node: fs.String("node", "", "data node endpoint (host:port)"),
	}
}

// dial connects to the metadata service named by -meta.
func (mf *metaFlags) dial() (*meta.FS, error) {
	if *mf.meta == "" {
		return nil, errors.New("need -meta host:port")
	}
	return meta.Dial(*mf.meta, meta.Options{
		Metrics: obs.NewRegistry(),
		// Tracing is offered so rebalance data ops show up in the
		// daemons' /debug/trace; daemons without tracing ignore it.
		Tracer: obs.NewTracer("parafilectl", 128),
	}), nil
}

// metaStatusVerb polls every -meta endpoint directly (no leader
// chasing: the point is each member's own view) and prints the group:
// term, role, believed leader, log tail, and the leaseholder's
// remaining lease.
func metaStatusVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return func() error {
		if *mf.meta == "" {
			return errors.New("need -meta host:port[,host:port...]")
		}
		fmt.Printf("%-22s %6s %-11s %-22s %10s %8s %8s\n",
			"endpoint", "term", "role", "leader", "log-tail", "lease", "peers")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		leaders := map[string]bool{}
		reached := 0
		for _, addr := range strings.Split(*mf.meta, ",") {
			if addr = strings.TrimSpace(addr); addr == "" {
				continue
			}
			cl := rpc.NewClient(rpc.ClientConfig{Addr: addr, MaxRetries: 1})
			st, err := cl.MetaStatus(ctx)
			cl.Close()
			if err != nil {
				fmt.Printf("%-22s unreachable: %v\n", addr, err)
				continue
			}
			reached++
			lease := "-"
			if st.LeaseMs > 0 {
				lease = fmt.Sprintf("%dms", st.LeaseMs)
			}
			if st.Role == rpc.RoleLeader || st.Role == rpc.RoleStandalone {
				leaders[st.Self] = true
			}
			fmt.Printf("%-22s %6d %-11s %-22s %6d@%-3d %8s %8d\n",
				addr, st.Term, st.Role, st.Leader, st.LastIndex, st.LastTerm, lease, st.Peers)
		}
		if reached == 0 {
			return errors.New("no metadata endpoint reachable")
		}
		if len(leaders) > 1 {
			return fmt.Errorf("split view: %d nodes claim the lease", len(leaders))
		}
		return nil
	}
}

func createVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	stripeKB := fs.Int64("stripe-kb", 0, "stripe unit in KiB (0 = service default)")
	repl := fs.Int("replication", 0, "replica count (0 = 1)")
	return func() error {
		if *mf.file == "" {
			return errors.New("need -file")
		}
		cl, err := mf.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		ctx := context.Background()
		f, err := cl.Create(ctx, *mf.file, *stripeKB<<10, *repl)
		if err != nil {
			return err
		}
		defer f.Close()
		p := f.Placement()
		fmt.Printf("created %q: epoch %d, %d subfiles x %d B stripes, replication %d, nodes %s\n",
			p.Name, p.Epoch, len(p.Assign), p.StripeBytes, p.Replication, strings.Join(p.Nodes, ","))
		return nil
	}
}

func lsVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return func() error {
		cl, err := mf.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		return printNamespace(cl)
	}
}

func rmVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return func() error {
		if *mf.file == "" {
			return errors.New("need -file")
		}
		cl, err := mf.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		if err := cl.Remove(context.Background(), *mf.file); err != nil {
			return err
		}
		fmt.Printf("removed %q\n", *mf.file)
		return nil
	}
}

// metaStatus prints the namespace and membership tables — the
// cluster-wide view `status -meta` gives during and after rebalances.
func metaStatus(mf *metaFlags) error {
	cl, err := mf.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	nodes, err := cl.Nodes(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("nodes (%d):\n", len(nodes))
	for _, n := range nodes {
		fmt.Printf("  %-24s %s\n", n.Addr, rpc.NodeStateName(n.State))
	}
	if len(nodes) == 0 {
		fmt.Println("  (none registered — `parafilectl add-node` to grow the cluster)")
	}
	fmt.Println()
	return printNamespace(cl)
}

func printNamespace(cl *meta.FS) error {
	files, err := cl.List(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("namespace (%d):\n", len(files))
	if len(files) == 0 {
		fmt.Println("  (empty)")
		return nil
	}
	fmt.Printf("  %-20s %8s %6s %6s %12s  %s\n", "name", "epoch", "repl", "sub", "length", "nodes")
	for _, f := range files {
		fmt.Printf("  %-20s %8d %6d %6d %12d  %s\n",
			f.Name, f.Epoch, f.Replication, len(f.Assign), f.Length, strings.Join(f.Nodes, ","))
	}
	return nil
}

func addNodeVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return membershipAction(mf, "add-node", func(cl *meta.FS, ctx context.Context, addr string) ([]*meta.RebalanceOutcome, error) {
		return cl.AddNode(ctx, addr)
	})
}

func drainNodeVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return membershipAction(mf, "drain-node", func(cl *meta.FS, ctx context.Context, addr string) ([]*meta.RebalanceOutcome, error) {
		return cl.DrainNode(ctx, addr)
	})
}

func decommissionVerb(fs *flag.FlagSet) func() error {
	mf := addMetaFlags(fs)
	return func() error {
		if *mf.node == "" {
			return errors.New("need -node host:port")
		}
		cl, err := mf.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		if err := cl.Decommission(context.Background(), *mf.node); err != nil {
			return err
		}
		fmt.Printf("decommissioned %s\n", *mf.node)
		return nil
	}
}

// membershipAction runs one membership change plus the namespace-wide
// rebalance it triggers, printing per-file outcomes. Files that failed
// don't abort the rest; they are reported and the verb exits nonzero.
func membershipAction(mf *metaFlags, what string, act func(*meta.FS, context.Context, string) ([]*meta.RebalanceOutcome, error)) func() error {
	return func() error {
		if *mf.node == "" {
			return errors.New("need -node host:port")
		}
		cl, err := mf.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		outcomes, err := act(cl, context.Background(), *mf.node)
		printRebalance(outcomes)
		if err != nil {
			return fmt.Errorf("%s %s: %w", what, *mf.node, err)
		}
		if failed := meta.Failed(outcomes); failed > 0 {
			return fmt.Errorf("%s %s: %d of %d file(s) failed to rebalance", what, *mf.node, failed, len(outcomes))
		}
		return nil
	}
}

func printRebalance(outcomes []*meta.RebalanceOutcome) {
	moved := 0
	var bytes int64
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Printf("  %-20s FAILED: %v\n", o.Name, o.Err)
			continue
		}
		r := o.Result
		if !r.Moved {
			fmt.Printf("  %-20s already balanced (epoch %d)\n", o.Name, r.FromEpoch)
			continue
		}
		moved++
		bytes += r.BytesMoved
		fmt.Printf("  %-20s epoch %d -> %d: %d -> %d nodes, %d bytes in %d messages (%s)\n",
			o.Name, r.FromEpoch, r.ToEpoch, len(r.FromNodes), len(r.ToNodes),
			r.BytesMoved, r.Messages, r.Wall.Round(time.Millisecond))
	}
	fmt.Printf("rebalanced %d file(s), %d bytes moved\n", moved, bytes)
}

// topVerb summarises each endpoint's /debug/trace document: node name,
// in-flight operations, and the recent stitched trees with the node
// that owns the largest share of each trace's critical path.
func topVerb(fs *flag.FlagSet) func() error {
	debug := fs.String("debug", "", "comma-separated -metrics-addr endpoints to poll (host:port,...)")
	recent := fs.Int("n", 8, "recent traces to show per endpoint")
	return func() error {
		if *debug == "" {
			return errors.New("need -debug host:port[,host:port...]")
		}
		for i, addr := range strings.Split(*debug, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if i > 0 {
				fmt.Println()
			}
			var dump obs.TraceDump
			if err := fetchTraceJSON(addr, "", &dump); err != nil {
				return err
			}
			printDump(addr, &dump, *recent)
		}
		return nil
	}
}

func printDump(addr string, dump *obs.TraceDump, recent int) {
	fmt.Printf("%s  node %q", addr, dump.Node)
	if !dump.Enabled {
		fmt.Println("  (tracing disabled)")
		return
	}
	fmt.Println()
	fmt.Printf("  in-flight (%d):\n", len(dump.InFlight))
	for _, op := range dump.InFlight {
		fmt.Printf("    %016x  %-14s running %s\n", op.TraceID, op.Op, fmtNs(op.DurNs))
	}
	if len(dump.InFlight) == 0 {
		fmt.Println("    (none)")
	}
	trees := dump.Recent
	if len(trees) > recent {
		trees = trees[len(trees)-recent:]
	}
	fmt.Printf("  recent (%d of %d):\n", len(trees), len(dump.Recent))
	if len(trees) == 0 {
		fmt.Println("    (none)")
	}
	for _, tr := range trees {
		status := "ok"
		if tr.Err {
			status = "ERROR"
		}
		hot := "-"
		if len(tr.Shares) > 0 {
			hot = fmt.Sprintf("%s %.0f%%", tr.Shares[0].Node, tr.Shares[0].Pct)
		}
		fmt.Printf("    %016x  %-14s %10s  %-5s  hottest: %s\n",
			tr.TraceID, tr.Op, fmtNs(tr.DurNs), status, hot)
	}
}

// traceVerb prints one stitched cross-node span tree. A selector that
// parses as hex is tried as a trace ID first and falls back to an op
// name on a miss, so `trace write` works even though "ead" is hex.
func traceVerb(fs *flag.FlagSet) func() error {
	debug := fs.String("debug", "", "-metrics-addr endpoint to query (host:port)")
	return func() error {
		if *debug == "" || fs.NArg() != 1 {
			return errors.New("usage: parafilectl trace -debug host:port <trace-id|op>")
		}
		sel := fs.Arg(0)
		var tree obs.TraceTree
		err := errNotFound
		if _, perr := strconv.ParseUint(sel, 16, 64); perr == nil {
			err = fetchTraceJSON(*debug, "id="+sel, &tree)
		}
		if err == errNotFound {
			err = fetchTraceJSON(*debug, "op="+url.QueryEscape(sel), &tree)
		}
		if err == errNotFound {
			return fmt.Errorf("no trace matching %q (try `parafilectl top -debug %s`)", sel, *debug)
		}
		if err != nil {
			return err
		}
		fmt.Print(tree.Format())
		return nil
	}
}

// qosVerb prints each endpoint's /debug/qos snapshot: admission
// occupancy, memory budget, and the per-tenant fair-share table.
func qosVerb(fs *flag.FlagSet) func() error {
	debug := fs.String("debug", "", "comma-separated -metrics-addr endpoints to poll (host:port,...)")
	return func() error {
		if *debug == "" {
			return errors.New("need -debug host:port[,host:port...]")
		}
		for i, addr := range strings.Split(*debug, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if i > 0 {
				fmt.Println()
			}
			var st qos.Status
			if err := fetchDebugJSON(addr, "/debug/qos", &st); err != nil {
				return err
			}
			fmt.Printf("%s\n%s", addr, st.Format())
		}
		return nil
	}
}

var errNotFound = errors.New("trace not found")

// fetchTraceJSON GETs /debug/trace?format=json[&query] from an
// endpoint and decodes the document into out.
func fetchTraceJSON(addr, query string, out any) error {
	u := "http://" + addr + "/debug/trace?format=json"
	if query != "" {
		u += "&" + query
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetchDebugJSON GETs an arbitrary debug endpoint's JSON form.
func fetchDebugJSON(addr, path string, out any) error {
	u := "http://" + addr + path + "?format=json"
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func buildFile(dims, dist string, elem int64) (*part.File, error) {
	pat, err := hpf.Pattern(dims, dist, elem)
	if err != nil {
		return nil, err
	}
	return part.NewFile(0, pat)
}
