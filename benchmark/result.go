package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json repeats
// the catalogue for the driver; the smoke test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the worsening that counts as a regression
}

// endToEndMetrics are what a user of the system sees. Every workload
// has two timed phases, A then B; what their op is, per workload:
//
//	ckpt_restart  A: one 16 MiB checkpoint (4 ranks)    B: one restart (SetView×4 + read + verify)
//	stripe_rw     A: one 8 MiB WriteAt                  B: one 8 MiB ReadAt + CRC32C
//	redistribute  A: one 16 MiB repartition             B: one add-node or drain-node rebalance
//	meta_ops      A: one 4 KiB append (quorum commit)   B: one overwrite+Stat(+Open) cycle
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"phase_a_ops_per_s", "1/s", "higher", 0.15},
	{"phase_b_ops_per_s", "1/s", "higher", 0.20},
	{"phase_a_p50_ms", "ms", "lower", 0.15},
	{"phase_b_p50_ms", "ms", "lower", 0.20},
	{"phase_a_cpu_ms_per_op", "ms", "lower", 0.15},
	{"phase_b_cpu_ms_per_op", "ms", "lower", 0.15},
}

// perLayerMetrics are readings of single layers (layer = package
// name). A workload on which a layer is idle reports 0 for it.
var perLayerMetrics = []metricDef{
	{"redist.viewset_us", "us", "lower", 0},
	{"redist.plan_compile_ms", "ms", "lower", 0},
	{"redist.plan_segments", "count", "lower", 0},
	{"redist.plan_coalesced_segments", "count", "lower", 0},
	{"redist.inproc_mbps", "MiB/s", "higher", 0},
	{"baseline.bytewise_mbps", "MiB/s", "higher", 0},
	{"core.map_ns", "ns", "lower", 0},
	{"clusterfile.t_map_us", "us", "lower", 0},
	{"clusterfile.t_gather_us", "us", "lower", 0},
	{"clusterfile.t_scatter_us", "us", "lower", 0},
	{"clusterfile.phase_a_self_ms", "ms", "lower", 0},
	{"clusterfile.phase_b_self_ms", "ms", "lower", 0},
	{"clusterfile.phase_a_fanout_parallelism", "ratio", "higher", 0},
	{"clusterfile.phase_b_fanout_parallelism", "ratio", "higher", 0},
	{"clusterfile.scatter_store_mbps", "MiB/s", "higher", 0},
	{"clusterfile.gather_store_mbps", "MiB/s", "higher", 0},
	{"clusterfile.store_calls_per_mib", "count", "lower", 0},
	{"clusterfile.msgbuf_discards", "count", "lower", 0},
	{"rpc.phase_a_handle_call_ms", "ms", "lower", 0},
	{"rpc.phase_b_handle_call_ms", "ms", "lower", 0},
	{"rpc.open_ms", "ms", "lower", 0},
	{"rpc.wire_bytes_per_user_byte", "ratio", "lower", 0},
	{"rpc.conn_writes_per_op", "count", "lower", 0},
	{"rpc.conn_reads_per_op", "count", "lower", 0},
	{"rpc.conn_blocked_ms", "ms", "lower", 0},
	{"rpc.frame_encode_ns_per_mib", "ns", "lower", 0},
	{"rpc.frame_decode_ns_per_mib", "ns", "lower", 0},
	{"rpc.phase_a_unattributed_share", "ratio", "lower", 0},
	{"rpc.phase_b_unattributed_share", "ratio", "lower", 0},
	{"rpc.frame_pool_discards", "count", "lower", 0},
	{"rpc.client_retries", "count", "lower", 0},
	{"rpc.breaker_opens", "count", "lower", 0},
	{"rpcsrv.phase_a_decode_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_lock_wait_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_scatter_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_gather_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_stream_stall_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_send_ms", "ms", "lower", 0},
	{"rpcsrv.phase_a_fsync_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_decode_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_lock_wait_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_scatter_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_gather_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_stream_stall_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_send_ms", "ms", "lower", 0},
	{"rpcsrv.phase_b_fsync_ms", "ms", "lower", 0},
	{"client.allocs_per_op", "count", "lower", 0},
	{"client.alloc_bytes_per_op", "B", "lower", 0},
	{"client.phase_a_p95_ms", "ms", "lower", 0},
	{"client.phase_b_p95_ms", "ms", "lower", 0},
	{"qos.acquire_ns", "ns", "lower", 0},
	{"qos.admitted_total", "count", "higher", 0},
	{"qos.shed_total", "count", "lower", 0},
	{"qos.queued_max", "count", "lower", 0},
	{"meta.open_ms", "ms", "lower", 0},
	{"meta.stat_ms", "ms", "lower", 0},
	{"meta.extend_ms", "ms", "lower", 0},
	{"meta.op_retries", "count", "lower", 0},
	{"meta.store_append_fsync_ms", "ms", "lower", 0},
	{"meta.rebalance_add_ms", "ms", "lower", 0},
	{"meta.rebalance_drain_ms", "ms", "lower", 0},
	{"meta.stale_retries_total", "count", "lower", 0},
	{"meta.elections_total", "count", "lower", 0},
	{"meta.stepdowns_total", "count", "lower", 0},
	{"meta.failovers_total", "count", "lower", 0},
	{"meta.repairs_total", "count", "lower", 0},
	{"storage.bytes_on_disk_per_user_byte", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. Metrics holds the
// catalogue's metrics (the driver's last line); Named holds the same
// readings under the workload's own names and units.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Named     map[string]metric `json:"named,omitempty"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Errors    []string          `json:"errors,omitempty"`

	namedOrder []string
}

func newResult(workload string, seed int64) *result {
	return &result{
		Workload: workload, Seed: seed, Correct: true,
		Metrics: make(map[string]metric),
		Named:   make(map[string]metric),
		Samples: make(map[string]int),
	}
}

// fail records an error; incorrect marks it as wrong output rather
// than a failed operation.
func (r *result) fail(err error, incorrect bool) {
	r.Errors = append(r.Errors, err.Error())
	if incorrect {
		r.Correct = false
	}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{v, d.unit}
			return
		}
	}
	panic("metric " + name + " is not in the catalogue")
}

// endToEnd fills the end-to-end metrics from the untraced pass.
func (r *result) endToEnd(setupS float64, p *pass) {
	set := func(name string, v float64) { r.set(endToEndMetrics, name, v) }
	set("setup_s", setupS)
	for _, ph := range []struct {
		tag string
		res *phaseResult
	}{{"a", &p.a}, {"b", &p.b}} {
		set("phase_"+ph.tag+"_ops_per_s", ph.res.opsPerSec())
		set("phase_"+ph.tag+"_p50_ms", ph.res.p(0.5))
		var cpuMs float64
		if n := ph.res.ops(); n > 0 {
			cpuMs = ph.res.cpu * 1000 / float64(n)
		}
		set("phase_"+ph.tag+"_cpu_ms_per_op", cpuMs)
		r.Samples["phase_"+ph.tag+"_ops"] = ph.res.ops()
	}
	for _, nv := range p.sess.named(&p.a, &p.b) {
		r.Named[nv.name] = metric{nv.value, nv.unit}
		r.namedOrder = append(r.namedOrder, nv.name)
	}
	var share float64
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.Named["failed_share"] = metric{share, "ratio"}
	r.namedOrder = append(r.namedOrder, "failed_share")
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	untraced, traced *pass
	lt               *layerTrace
	before, after    counters
	md               map[string]float64 // metadata daemons' counters over both timed windows
	queuedMax        int64
	onDisk           int64
	probes           map[string]float64
}

// perLayer fills the per-layer metrics. Sources: (S) the stitched span
// trees and seam counters of the traced pass, (P) probes, (C) counters
// scraped at the window's boundaries.
func (r *result) perLayer(in layerInputs) {
	set := func(name string, v float64) { r.set(perLayerMetrics, name, v) }
	for _, d := range perLayerMetrics {
		set(d.name, 0)
	}
	a, b := &in.traced.a, &in.traced.b
	ops := float64(a.ops() + b.ops())
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}

	// (S) span trees: handle calls are the rpc.* children of an op.
	var calls int
	for _, ph := range []struct {
		tag string
		res *phaseResult
	}{{"a", a}, {"b", b}} {
		agg := in.lt.aggregate(ph.res.samples)
		set("clusterfile.phase_"+ph.tag+"_self_ms", agg.selfP50())
		set("clusterfile.phase_"+ph.tag+"_fanout_parallelism", agg.parallelism())
		set("rpc.phase_"+ph.tag+"_handle_call_ms", agg.callP50())
		set("rpc.phase_"+ph.tag+"_unattributed_share", agg.unattributed())
		if n := ph.res.ops(); n > 0 {
			for _, name := range serverSpans {
				set("rpcsrv.phase_"+ph.tag+"_"+name+"_ms", float64(agg.srvSelf[name])/1e6/float64(n))
			}
		}
		calls += len(agg.callMs)
	}
	r.Samples["traced_ops"] = int(ops)
	r.Samples["traced_handle_calls"] = calls

	// (S) the generator's sockets, heap and tail.
	d := in.after.minus(in.before)
	phases := in.traced.sess.phases()
	if userBytes := int64(a.ops())*phases[0].opBytes + int64(b.ops())*phases[1].opBytes; userBytes > 0 {
		set("rpc.wire_bytes_per_user_byte", float64(d.readB+d.writeB)/float64(userBytes))
	}
	set("rpc.conn_writes_per_op", perOp(float64(d.writes)))
	set("rpc.conn_reads_per_op", perOp(float64(d.reads)))
	set("rpc.conn_blocked_ms", perOp(float64(d.writeBlocked)/1e6))
	// Heap traffic and tails come from the untraced pass: spans and
	// stitched trees are allocations the user's path does not make.
	ua, ub := &in.untraced.a, &in.untraced.b
	if n := float64(ua.ops() + ub.ops()); n > 0 {
		set("client.allocs_per_op", float64(ua.allocs+ub.allocs)/n)
		set("client.alloc_bytes_per_op", float64(ua.allocB+ub.allocB)/n)
	}
	set("client.phase_a_p95_ms", ua.p(0.95))
	set("client.phase_b_p95_ms", ub.p(0.95))
	for name, v := range in.traced.sess.layer(a, b) {
		set(name, v)
	}

	// (C) counters over the traced window.
	set("rpc.frame_pool_discards", float64(d.frameDiscards)+sumSeries(d.daemons, `parafile_pool_discards{kind="frame"}`))
	set("clusterfile.msgbuf_discards", float64(d.msgBufDiscards))
	set("rpc.client_retries", sumSeries(d.client, "parafile_rpc_client_retries_total"))
	set("rpc.breaker_opens", sumSeries(d.client, "parafile_rpc_breaker_opens_total"))
	set("qos.admitted_total", sumSeries(d.daemons, "parafile_qos_admitted_total"))
	set("qos.shed_total", sumSeries(d.daemons, "parafile_qos_shed_total"))
	set("qos.queued_max", float64(in.queuedMax))
	set("meta.stale_retries_total", sumSeries(d.client, "parafile_meta_stale_retries_total"))
	set("meta.failovers_total", sumSeries(d.client, "parafile_meta_failovers_total"))
	// Elections, step-downs and follower snapshot repairs count from
	// before the untraced window: one during any timed window is a
	// finding.
	set("meta.elections_total", sumSeries(in.md, "parafile_meta_elections_total"))
	set("meta.stepdowns_total", sumSeries(in.md, "parafile_meta_stepdowns_total"))
	set("meta.repairs_total", sumSeries(in.md, "parafile_meta_repairs_total"))
	if live := in.traced.sess.liveBytes(); live > 0 {
		set("storage.bytes_on_disk_per_user_byte", float64(in.onDisk)/float64(live))
	}

	// (P) probes.
	for name, v := range in.probes {
		set(name, v)
	}

	// Tracing overhead: the throughput the traced pass lost, averaged
	// over the phases.
	var lost float64
	for _, ph := range [][2]*phaseResult{{&in.untraced.a, a}, {&in.untraced.b, b}} {
		if u := ph[0].opsPerSec(); u > 0 {
			lost += (u - ph[1].opsPerSec()) / u / 2
		}
	}
	set("trace.overhead_share", lost)
}

// print writes the human-readable report and, as the last line, the
// JSON object the driver reads.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	for _, name := range r.namedOrder {
		m := r.Named[name]
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  samples %-34s %14d\n", k, r.Samples[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the harness
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printMachine states the facts a reader needs to place the numbers.
func printMachine(w io.Writer) {
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s LLC=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), lastLevelCache())
	fmt.Fprintf(w, "topology: %d parafiled (-qos -qos-inflight %d, file-backed, tracing on) + %d parafilemd, R=%d, write quorum=all, stripe %d KiB, %d closed-loop client(s)\n",
		dataDaemons, qosInflight, metaDaemons, replication, stripeBytes>>10, clients())
	fmt.Fprintln(w, "flush policy: subfile data is acknowledged from the page cache (fileStorage syncs only on Close); the metadata log fsyncs per append")
	fmt.Fprintln(w, "latencies are this sandbox's, not a device's")
}

// lastLevelCache reads the size of cpu0's highest-level cache.
func lastLevelCache() string {
	size := "unknown"
	for i := 0; ; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			return size
		}
		size = strings.TrimSpace(string(b))
	}
}
