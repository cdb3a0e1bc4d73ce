package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// trace.go turns the process-local span trees of span.go into
// cross-node distributed traces. Every collective operation gets a
// 64-bit trace ID; every span in the tree a 64-bit span ID plus its
// parent's ID. Server-side spans are exported as flat SpanRecords,
// shipped over the wire piggybacked on replies, attached to the client
// span that issued the RPC, and stitched back into one tree by parent
// ID.
//
// Clocks: span IDs tie the tree together, timestamps do not. Each
// record's Start/End come from the clock of the node that ran the
// span, so durations are trustworthy but absolute times are only
// comparable within one node. Stitching therefore never orders or
// aligns spans across nodes by timestamp — the tree shape comes from
// parent IDs alone, and renderings show durations, not offsets.

// ID generation: a process-wide counter whisked through the
// splitmix64 finalizer and salted with a per-process nonce, so IDs
// are unique within a process and collide across processes only with
// ordinary birthday probability. No coordination, one atomic add.
var (
	idCounter atomic.Uint64
	idNonce   = uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15
)

// NewTraceID returns a fresh non-zero 64-bit ID. Zero is reserved as
// "no trace" on the wire and in Span fields.
func NewTraceID() uint64 { return newID() }

func newID() uint64 {
	x := idNonce + idCounter.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// SpanRecord is the wire- and JSON-portable form of one completed
// span. Start/End are UnixNano on the recording node's clock.
type SpanRecord struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Node    string `json:"node"`
	Start   int64  `json:"start_unix_ns"`
	End     int64  `json:"end_unix_ns"`
	Err     bool   `json:"error,omitempty"`
}

// DurationNs returns the record's length on its own node's clock.
func (r *SpanRecord) DurationNs() int64 { return r.End - r.Start }

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the active span. A nil
// span returns ctx unchanged, so the disabled path adds no context
// wrapping (and no allocation).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// TraceNode is one span in a stitched tree.
type TraceNode struct {
	SpanRecord
	Children []*TraceNode `json:"children,omitempty"`
}

// NodeShare is one node's share of a trace's self-time: the time
// spans on that node spent not covered by their own children. The
// self-time of an RPC client span minus its server children is the
// wire (and queueing) cost, which shows up under the client's node.
type NodeShare struct {
	Node string  `json:"node"`
	Ns   int64   `json:"ns"`
	Pct  float64 `json:"pct"`
}

// TraceTree is one operation's stitched cross-node trace.
type TraceTree struct {
	Op      string      `json:"op"`
	TraceID uint64      `json:"trace_id"`
	Start   int64       `json:"start_unix_ns"`
	DurNs   int64       `json:"duration_ns"`
	Err     bool        `json:"error,omitempty"`
	Root    *TraceNode  `json:"root"`
	Shares  []NodeShare `json:"node_shares,omitempty"`
}

// Stitch assembles flat records into a tree by parent ID. The root is
// the record whose parent is absent from the set (ties broken toward
// Parent==0, then earliest start); any other parentless records —
// e.g. spans from a node whose reply was lost — are attached under
// the root so the tree is always complete. Children sort by start
// time (meaningful within a node, best-effort across nodes).
func Stitch(recs []SpanRecord) *TraceNode {
	if len(recs) == 0 {
		return nil
	}
	byID := make(map[uint64]*TraceNode, len(recs))
	nodes := make([]*TraceNode, len(recs))
	for i := range recs {
		n := &TraceNode{SpanRecord: recs[i]}
		nodes[i] = n
		if _, dup := byID[n.SpanID]; !dup {
			byID[n.SpanID] = n
		}
	}
	betterRoot := func(n, cur *TraceNode) bool {
		if cur == nil {
			return true
		}
		if (n.Parent == 0) != (cur.Parent == 0) {
			return n.Parent == 0
		}
		return n.Start < cur.Start
	}
	var root *TraceNode
	var orphans []*TraceNode
	for _, n := range nodes {
		if p, ok := byID[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		if betterRoot(n, root) {
			if root != nil {
				orphans = append(orphans, root)
			}
			root = n
		} else {
			orphans = append(orphans, n)
		}
	}
	root.Children = append(root.Children, orphans...)
	var sortKids func(n *TraceNode)
	sortKids = func(n *TraceNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Start < n.Children[j].Start
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sortKids(root)
	return root
}

// BuildTree stitches records and computes per-node self-time shares.
func BuildTree(op string, recs []SpanRecord) *TraceTree {
	root := Stitch(recs)
	if root == nil {
		return &TraceTree{Op: op}
	}
	t := &TraceTree{
		Op:      op,
		TraceID: root.TraceID,
		Start:   root.Start,
		DurNs:   root.DurationNs(),
		Err:     root.Err,
		Root:    root,
	}
	t.Shares = nodeShares(root)
	return t
}

// nodeShares aggregates self-time (own duration minus the sum of the
// children's durations, clamped at zero) by node and converts to
// percentages of the total.
func nodeShares(root *TraceNode) []NodeShare {
	byNode := map[string]int64{}
	var walk func(n *TraceNode)
	walk = func(n *TraceNode) {
		self := n.DurationNs()
		for _, c := range n.Children {
			self -= c.DurationNs()
			walk(c)
		}
		if self < 0 {
			self = 0
		}
		byNode[n.Node] += self
	}
	walk(root)
	var total int64
	for _, ns := range byNode {
		total += ns
	}
	shares := make([]NodeShare, 0, len(byNode))
	for node, ns := range byNode {
		s := NodeShare{Node: node, Ns: ns}
		if total > 0 {
			s.Pct = 100 * float64(ns) / float64(total)
		}
		shares = append(shares, s)
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Ns != shares[j].Ns {
			return shares[i].Ns > shares[j].Ns
		}
		return shares[i].Node < shares[j].Node
	})
	return shares
}

// Format renders the stitched tree as an indented timeline with the
// owning node on each line and the per-node share footer.
func (t *TraceTree) Format() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	errMark := ""
	if t.Err {
		errMark = "  ERROR"
	}
	fmt.Fprintf(&b, "op %s  trace %016x  %s%s\n", t.Op, t.TraceID, formatNs(t.DurNs), errMark)
	var walk func(n *TraceNode, depth int)
	walk = func(n *TraceNode, depth int) {
		mark := ""
		if n.Err {
			mark = "  error=true"
		}
		fmt.Fprintf(&b, "  %-*s%-*s %12s  [%s]%s\n",
			2*depth, "", 44-2*depth, n.Name, formatNs(n.DurationNs()), n.Node, mark)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 0)
	}
	if len(t.Shares) > 0 {
		b.WriteString("  --\n")
		for _, s := range t.Shares {
			fmt.Fprintf(&b, "  %-20s %5.1f%%  %s\n", s.Node, s.Pct, formatNs(s.Ns))
		}
	}
	return b.String()
}

// OpSnapshot describes one in-flight operation.
type OpSnapshot struct {
	Op      string `json:"op"`
	TraceID uint64 `json:"trace_id"`
	Start   int64  `json:"start_unix_ns"`
	DurNs   int64  `json:"duration_ns"`
}

// Tracer hands out trace roots, tracks in-flight operations, and
// keeps a bounded ring of recently completed stitched trees for the
// /debug/trace endpoint and parafilectl. A nil *Tracer is the
// disabled state: StartOp returns a nil span and every other method
// is a free no-op, so the instrumented paths need no guards.
type Tracer struct {
	node string
	cap  int

	mu       sync.Mutex
	inflight map[uint64]*Span
	recent   []*TraceTree // ring: recent[next] is the oldest slot
	next     int
	filled   bool
}

// NewTracer returns a tracer labelling spans with the given node name
// and retaining up to capacity completed trees (minimum 1).
func NewTracer(node string, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{node: node, cap: capacity, inflight: make(map[uint64]*Span)}
}

// Node returns the tracer's node label ("" for nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// StartOp opens a traced root span for one operation and registers it
// as in-flight. Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartOp(name string) *Span {
	if t == nil {
		return nil
	}
	s := StartTrace(name, t.node)
	t.mu.Lock()
	t.inflight[s.traceID] = s
	t.mu.Unlock()
	return s
}

// Adopt registers an externally created span (e.g. a server span
// adopted from a remote trace ID) as an in-flight operation.
func (t *Tracer) Adopt(s *Span) {
	if t == nil || s == nil || s.traceID == 0 {
		return
	}
	t.mu.Lock()
	t.inflight[s.traceID] = s
	t.mu.Unlock()
}

// FinishOp ends the span, stitches its records (own subtree plus any
// attached foreign records) into a tree, and retires it from
// in-flight into the recent ring. Both receivers may be nil.
func (t *Tracer) FinishOp(s *Span) *TraceTree {
	if s == nil {
		return nil
	}
	s.End()
	if t == nil {
		return nil
	}
	tree := BuildTree(s.Name(), s.Records(nil))
	t.mu.Lock()
	delete(t.inflight, s.traceID)
	if len(t.recent) < t.cap {
		t.recent = append(t.recent, tree)
	} else {
		t.recent[t.next] = tree
		t.next = (t.next + 1) % t.cap
		t.filled = true
	}
	t.mu.Unlock()
	return tree
}

// InFlight snapshots the currently running operations, oldest first.
func (t *Tracer) InFlight() []OpSnapshot {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	out := make([]OpSnapshot, 0, len(t.inflight))
	for _, s := range t.inflight {
		out = append(out, OpSnapshot{
			Op:      s.Name(),
			TraceID: s.traceID,
			Start:   s.start.UnixNano(),
			DurNs:   now.Sub(s.start).Nanoseconds(),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Recent returns the retained completed trees, oldest first.
func (t *Tracer) Recent() []*TraceTree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*TraceTree, 0, len(t.recent))
	if t.filled {
		out = append(out, t.recent[t.next:]...)
		out = append(out, t.recent[:t.next]...)
	} else {
		out = append(out, t.recent...)
	}
	return out
}

// Find returns the retained tree with the given trace ID, or nil.
func (t *Tracer) Find(traceID uint64) *TraceTree {
	for _, tree := range t.Recent() {
		if tree.TraceID == traceID {
			return tree
		}
	}
	return nil
}

// FindOp returns the most recently completed tree whose op name
// matches, or nil.
func (t *Tracer) FindOp(name string) *TraceTree {
	recent := t.Recent()
	for i := len(recent) - 1; i >= 0; i-- {
		if recent[i].Op == name {
			return recent[i]
		}
	}
	return nil
}
