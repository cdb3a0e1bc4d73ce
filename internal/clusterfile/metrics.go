package clusterfile

import (
	"fmt"

	"parafile/internal/obs"
)

// metrics.go names and binds the cluster's observability series. A
// cluster built with a nil Config.Metrics gets a cfMetrics full of
// nil metrics, whose methods are free no-ops — instrumented code
// paths need no guards and the disabled path allocates nothing.
const (
	// MetricGatherBytes / MetricScatterBytes total the bytes moved by
	// the gather (pack) and scatter (unpack) passes of the write, read
	// and redistribution protocols.
	MetricGatherBytes  = "parafile_clusterfile_gather_bytes_total"
	MetricScatterBytes = "parafile_clusterfile_scatter_bytes_total"
	// MetricGatherNs / MetricScatterNs are host wall-clock latency
	// histograms of the individual gather/scatter passes.
	MetricGatherNs  = "parafile_clusterfile_gather_ns"
	MetricScatterNs = "parafile_clusterfile_scatter_ns"
	// MetricNetMessages / MetricNetBytes count protocol messages and
	// payload bytes handed to the simulated interconnect.
	MetricNetMessages = "parafile_clusterfile_net_messages_total"
	MetricNetBytes    = "parafile_clusterfile_net_bytes_total"
	// MetricMsgBufHits / MetricMsgBufMisses measure the message-buffer
	// pool: hits reuse pooled capacity, misses allocate.
	// MetricMsgBufReturns counts buffers handed back (pooled or
	// discarded): hits+misses-returns is what operations still hold,
	// zero once they have settled.
	MetricMsgBufHits    = "parafile_clusterfile_msgbuf_hits_total"
	MetricMsgBufMisses  = "parafile_clusterfile_msgbuf_misses_total"
	MetricMsgBufReturns = "parafile_clusterfile_msgbuf_returns_total"
	// MetricMsgBufDiscards counts buffers dropped by the pool's
	// retention cap instead of being returned for reuse.
	MetricMsgBufDiscards = "parafile_clusterfile_msgbuf_discards_total"
	// metricPoolDiscards is the cross-package normalized discard
	// series (rpc.MetricPoolDiscards): every buffer pool exposes its
	// process-wide discard count under this one name with a lowercase
	// kind label. The msgbuf kind is bound once here, mirroring
	// MsgBufDiscards as a gauge.
	metricPoolDiscards = `parafile_pool_discards{kind="msgbuf"}`
	// MetricSetViews counts SetView calls; MetricSetViewNs is the
	// intersection+projection latency histogram (the paper's t_i).
	MetricSetViews  = "parafile_clusterfile_set_views_total"
	MetricSetViewNs = "parafile_clusterfile_set_view_ns"
	// Operation counters.
	MetricWriteOps  = "parafile_clusterfile_write_ops_total"
	MetricReadOps   = "parafile_clusterfile_read_ops_total"
	MetricRedistOps = "parafile_clusterfile_redist_ops_total"
	// metricIONodeBytes roots the per-I/O-node byte series,
	// parafile_clusterfile_io_node_bytes_total{node="i"} — comparing
	// the per-node series exposes the byte skew of a layout.
	metricIONodeBytes = "parafile_clusterfile_io_node_bytes_total"
	// Replication series. MetricReplicaFailovers counts reads re-issued
	// against a sibling replica after a placement failed;
	// MetricReplicaDegradedOps counts operations that succeeded while
	// one or more replica placements failed (quorum absorbed the loss).
	MetricReplicaFailovers   = "parafile_replica_failover_total"
	MetricReplicaDegradedOps = "parafile_replica_degraded_ops_total"
	// Scrub/repair series: segments compared, mismatching segments
	// found, repair operations run and bytes rewritten by them.
	MetricScrubSegments   = "parafile_replica_scrub_segments_total"
	MetricScrubMismatches = "parafile_replica_scrub_mismatches_total"
	MetricRepairOps       = "parafile_replica_repair_ops_total"
	MetricRepairBytes     = "parafile_replica_repair_bytes_total"
)

// cfMetrics holds the cluster's bound metrics.
type cfMetrics struct {
	gatherBytes, scatterBytes *obs.Counter
	gatherNs, scatterNs       *obs.Histogram
	netMsgs, netBytes         *obs.Counter
	bufHits, bufMisses        *obs.Counter
	bufReturns, bufDiscards   *obs.Counter
	poolDiscards              *obs.Gauge
	setViews                  *obs.Counter
	setViewNs                 *obs.Histogram
	writeOps, readOps         *obs.Counter
	redistOps                 *obs.Counter
	failovers, degradedOps    *obs.Counter
	scrubSegments             *obs.Counter
	scrubMismatches           *obs.Counter
	repairOps, repairBytes    *obs.Counter
	ioNodeBytes               []*obs.Counter
}

// newCFMetrics binds the series on the registry (every field nil when
// reg is nil, which is the free disabled state).
func newCFMetrics(reg *obs.Registry, ioNodes int) cfMetrics {
	m := cfMetrics{
		gatherBytes:     reg.Counter(MetricGatherBytes),
		scatterBytes:    reg.Counter(MetricScatterBytes),
		gatherNs:        reg.Histogram(MetricGatherNs, obs.LatencyBuckets()),
		scatterNs:       reg.Histogram(MetricScatterNs, obs.LatencyBuckets()),
		netMsgs:         reg.Counter(MetricNetMessages),
		netBytes:        reg.Counter(MetricNetBytes),
		bufHits:         reg.Counter(MetricMsgBufHits),
		bufMisses:       reg.Counter(MetricMsgBufMisses),
		bufReturns:      reg.Counter(MetricMsgBufReturns),
		bufDiscards:     reg.Counter(MetricMsgBufDiscards),
		poolDiscards:    reg.Gauge(metricPoolDiscards),
		setViews:        reg.Counter(MetricSetViews),
		setViewNs:       reg.Histogram(MetricSetViewNs, obs.LatencyBuckets()),
		writeOps:        reg.Counter(MetricWriteOps),
		readOps:         reg.Counter(MetricReadOps),
		redistOps:       reg.Counter(MetricRedistOps),
		failovers:       reg.Counter(MetricReplicaFailovers),
		degradedOps:     reg.Counter(MetricReplicaDegradedOps),
		scrubSegments:   reg.Counter(MetricScrubSegments),
		scrubMismatches: reg.Counter(MetricScrubMismatches),
		repairOps:       reg.Counter(MetricRepairOps),
		repairBytes:     reg.Counter(MetricRepairBytes),
		ioNodeBytes:     make([]*obs.Counter, ioNodes),
	}
	for i := range m.ioNodeBytes {
		m.ioNodeBytes[i] = reg.Counter(fmt.Sprintf(`%s{node="%d"}`, metricIONodeBytes, i))
	}
	return m
}

// ioBytes returns the byte counter of the given I/O node (nil, hence
// a no-op, out of range).
func (m *cfMetrics) ioBytes(node int) *obs.Counter {
	if node < 0 || node >= len(m.ioNodeBytes) {
		return nil
	}
	return m.ioNodeBytes[node]
}

// recordNet counts one protocol message of the given payload size.
func (m *cfMetrics) recordNet(bytes int64) {
	m.netMsgs.Inc()
	m.netBytes.Add(bytes)
}
