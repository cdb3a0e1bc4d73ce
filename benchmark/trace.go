package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// trace.go is the measuring side of the traced pass. Everything here
// observes the program from outside, through seams it already exposes:
// an obs.Tracer handed to the client (which makes every handle call an
// rpc.* span and brings the daemons' server spans back for stitching),
// a net.Conn wrapper installed through rpc.ClientConfig.Dialer, an
// obs.Registry for the client-side counters, and the daemons'
// /metrics.json.

// traceRing bounds the stitched trees kept per client of a traced
// session; a meta_ops pass completes a few thousand ops per second.
const traceRing = 1 << 15

// layerTrace is the instrumentation of one traced session. Every
// client goroutine gets a tracer of its own, whose node label tells its
// trees apart from the other clients'.
type layerTrace struct {
	tracers []*obs.Tracer
	reg     *obs.Registry
	conn    connStats
}

func newLayerTrace() *layerTrace {
	lt := &layerTrace{reg: obs.NewRegistry()}
	for c := 0; c < clients(); c++ {
		lt.tracers = append(lt.tracers, obs.NewTracer(fmt.Sprintf("client%d", c), traceRing))
	}
	return lt
}

// connStats counts what crosses the generator's sockets.
type connStats struct {
	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
	writeNs               atomic.Int64 // time blocked inside Write
}

type countedConn struct {
	net.Conn
	st *connStats
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.readBytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	return n, err
}

// dial is the rpc.ClientConfig.Dialer of a traced session.
func (lt *layerTrace) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, st: &lt.conn}, nil
}

// clientConfig is the per-daemon client template of a session: the
// client defaults (streamed wire path), plus tracing and the counting
// dialer in a traced session. lt may be nil.
func (lt *layerTrace) clientConfig() rpc.ClientConfig {
	if lt == nil {
		return rpc.ClientConfig{}
	}
	return rpc.ClientConfig{Trace: true, Dialer: lt.dial}
}

func (lt *layerTrace) registry() *obs.Registry {
	if lt == nil {
		return nil
	}
	return lt.reg
}

// opTracer is the tracer of client goroutine c.
func (lt *layerTrace) opTracer(c int) *obs.Tracer {
	if lt == nil {
		return nil
	}
	return lt.tracers[c]
}

// serverSpans are the daemon-side child spans PR 7 records; their self
// times are the rpcsrv.* metrics.
var serverSpans = []string{"decode", "lock_wait", "scatter", "gather", "stream_stall", "send", "fsync"}

// spanAgg is the per-layer reading of one traced phase.
type spanAgg struct {
	selfMs  []float64        // per op: latency − union of its handle calls
	callMs  []float64        // per handle call round trip
	callNs  int64            // Σ handle-call durations
	unionNs int64            // Σ per-op union of handle-call intervals
	srvSelf map[string]int64 // Σ self time of the named server spans below the calls
}

// selfP50 is the median client-side time per op outside handle calls.
func (a *spanAgg) selfP50() float64 { return median(a.selfMs) }

// callP50 is the median handle-call round trip.
func (a *spanAgg) callP50() float64 { return median(a.callMs) }

// unattributed is the share of handle-call time that no named server
// span covers: wire, framing, client queueing, server self time.
func (a *spanAgg) unattributed() float64 {
	if a.callNs == 0 {
		return 0
	}
	var named int64
	for _, ns := range a.srvSelf {
		named += ns
	}
	return 1 - float64(named)/float64(a.callNs)
}

// parallelism is Σ handle-call time ÷ union of their intervals: 1.0
// while the kernel issues them one after another.
func (a *spanAgg) parallelism() float64 {
	if a.unionNs == 0 {
		return 0
	}
	return float64(a.callNs) / float64(a.unionNs)
}

// aggregate reads the handle calls of one phase's ops out of the
// stitched trees. A handle call is an rpc.* child of a tree's root; an
// op owns the trees its client started inside the op's latency
// interval (a checkpoint is four trees, one per rank; a rebalance is
// the redistribute trees of the move).
func (lt *layerTrace) aggregate(samples []opSample) spanAgg {
	agg := spanAgg{srvSelf: make(map[string]int64)}
	for c, tracer := range lt.tracers {
		trees := tracer.Recent()
		sort.Slice(trees, func(i, j int) bool { return trees[i].Start < trees[j].Start })
		for _, s := range samples {
			if s.client != c {
				continue
			}
			lo, hi := s.start.UnixNano(), s.start.Add(s.lat).UnixNano()
			first := sort.Search(len(trees), func(i int) bool { return trees[i].Start >= lo })
			var calls []*obs.TraceNode
			for _, t := range trees[first:] {
				if t.Start > hi {
					break
				}
				for _, n := range t.Root.Children {
					if strings.HasPrefix(n.Name, "rpc.") {
						calls = append(calls, n)
					}
				}
			}
			if len(calls) == 0 {
				continue // a control-plane op: no data daemon was called
			}
			sort.Slice(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
			var union int64
			curLo, curHi := calls[0].Start, calls[0].Start
			for _, n := range calls {
				d := n.DurationNs()
				agg.callNs += d
				agg.callMs = append(agg.callMs, float64(d)/1e6)
				if n.Start > curHi {
					union += curHi - curLo
					curLo, curHi = n.Start, n.End
				} else if n.End > curHi {
					curHi = n.End
				}
				addServerSelf(n, agg.srvSelf)
			}
			union += curHi - curLo
			agg.unionNs += union
			agg.selfMs = append(agg.selfMs, float64(int64(s.lat)-union)/1e6)
		}
	}
	return agg
}

// addServerSelf walks the spans below one handle call and adds the self
// time (duration minus children) of every named server span.
func addServerSelf(n *obs.TraceNode, srvSelf map[string]int64) {
	for _, c := range n.Children {
		self := c.DurationNs()
		for _, g := range c.Children {
			self -= g.DurationNs()
		}
		if self > 0 {
			for _, name := range serverSpans {
				if c.Name == name {
					srvSelf[name] += self
				}
			}
		}
		addServerSelf(c, srvSelf)
	}
}

// scrape fetches one daemon's /metrics.json: counters and gauges as
// numbers (histograms are skipped).
func scrape(ctx context.Context, metricsAddr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+metricsAddr+"/metrics.json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", metricsAddr, resp.Status)
	}
	return decodeMetrics(json.NewDecoder(resp.Body))
}

func decodeMetrics(dec *json.Decoder) (map[string]float64, error) {
	var raw map[string]any
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// registryValues reads a client-side registry in the same form.
func registryValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = obs.WriteJSON(&buf, reg) // writes to a bytes.Buffer cannot fail
	out, err := decodeMetrics(json.NewDecoder(&buf))
	if err != nil {
		panic("obs.WriteJSON produced undecodable JSON: " + err.Error())
	}
	return out
}

// sumSeries adds every series of the metric family, labels included.
func sumSeries(m map[string]float64, family string) float64 {
	var total float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// scrapeAll sums the daemons' series into one map.
func scrapeAll(ctx context.Context, procs []*proc) (map[string]float64, error) {
	total := make(map[string]float64)
	for _, p := range procs {
		m, err := scrape(ctx, p.metrics)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// queueSampler polls the data daemons' admission queues during the
// traced pass; a gauge read only at phase boundaries would always show
// an empty queue.
type queueSampler struct {
	max  atomic.Int64
	stop context.CancelFunc
	done chan struct{}
}

func startQueueSampler(ctx context.Context, procs []*proc) *queueSampler {
	ctx, cancel := context.WithCancel(ctx)
	s := &queueSampler{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			for _, p := range procs {
				if m, err := scrape(ctx, p.metrics); err == nil {
					if q := int64(m["parafile_qos_queued"]); q > s.max.Load() {
						s.max.Store(q)
					}
				}
			}
		}
	}()
	return s
}

func (s *queueSampler) finish() int64 {
	s.stop()
	<-s.done
	return s.max.Load()
}
