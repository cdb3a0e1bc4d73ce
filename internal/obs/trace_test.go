package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// trace_test.go covers the distributed-trace layer: ID generation,
// record stitching, per-node shares, the tracer's in-flight map and
// recent ring, and — load-bearing for the wire hot
// path — that every disabled-state primitive is a zero-allocation
// no-op.

func TestNewTraceIDNonZeroUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID (reserved for 'no trace')")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %016x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestStitchBasic(t *testing.T) {
	recs := []SpanRecord{
		{TraceID: 9, SpanID: 1, Parent: 0, Name: "write", Node: "client", Start: 0, End: 100},
		{TraceID: 9, SpanID: 2, Parent: 1, Name: "rpc", Node: "client", Start: 10, End: 60},
		{TraceID: 9, SpanID: 3, Parent: 2, Name: "server.write", Node: "ion0", Start: 5, End: 40},
		{TraceID: 9, SpanID: 4, Parent: 1, Name: "rpc2", Node: "client", Start: 5, End: 30},
	}
	root := Stitch(recs)
	if root == nil || root.SpanID != 1 {
		t.Fatalf("root = %+v, want span 1", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	// Children sort by start: rpc2 (5) before rpc (10).
	if root.Children[0].SpanID != 4 || root.Children[1].SpanID != 2 {
		t.Fatalf("children out of order: %d, %d", root.Children[0].SpanID, root.Children[1].SpanID)
	}
	if len(root.Children[1].Children) != 1 || root.Children[1].Children[0].Node != "ion0" {
		t.Fatal("server span not nested under its rpc parent")
	}
}

// TestStitchOrphans: records whose parent never arrived (a node whose
// reply was lost) still land in the tree, attached under the root.
func TestStitchOrphans(t *testing.T) {
	recs := []SpanRecord{
		{TraceID: 9, SpanID: 3, Parent: 77, Name: "server.write", Node: "ion1", Start: 3, End: 4},
		{TraceID: 9, SpanID: 1, Parent: 0, Name: "write", Node: "client", Start: 0, End: 100},
	}
	root := Stitch(recs)
	if root.SpanID != 1 {
		t.Fatalf("root = span %d, want 1 (Parent==0 wins over earlier start)", root.SpanID)
	}
	if len(root.Children) != 1 || root.Children[0].SpanID != 3 {
		t.Fatal("orphan record dropped from the tree")
	}
}

func TestBuildTreeShares(t *testing.T) {
	recs := []SpanRecord{
		{TraceID: 9, SpanID: 1, Parent: 0, Name: "write", Node: "client", Start: 0, End: 100},
		{TraceID: 9, SpanID: 2, Parent: 1, Name: "server.write", Node: "ion0", Start: 0, End: 60},
	}
	tree := BuildTree("write", recs)
	if tree.TraceID != 9 || tree.DurNs != 100 {
		t.Fatalf("tree header wrong: %+v", tree)
	}
	if len(tree.Shares) != 2 {
		t.Fatalf("want 2 node shares, got %v", tree.Shares)
	}
	// ion0 self-time 60, client self-time 100-60=40: ion0 sorts first.
	if tree.Shares[0].Node != "ion0" || tree.Shares[0].Ns != 60 || tree.Shares[1].Ns != 40 {
		t.Fatalf("shares wrong: %+v", tree.Shares)
	}
	var pct float64
	for _, s := range tree.Shares {
		pct += s.Pct
	}
	if pct < 99.9 || pct > 100.1 {
		t.Fatalf("shares sum to %.2f%%, want 100%%", pct)
	}
	if !strings.Contains(tree.Format(), "ion0") {
		t.Fatal("Format omits the node column")
	}
}

func TestTracerRingAndLookup(t *testing.T) {
	tr := NewTracer("client", 2)
	var ids []uint64
	for _, name := range []string{"a", "b", "c"} {
		sp := tr.StartOp(name)
		ids = append(ids, sp.TraceID())
		if got := len(tr.InFlight()); got != 1 {
			t.Fatalf("in-flight = %d during %s, want 1", got, name)
		}
		tr.FinishOp(sp)
	}
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Op != "b" || recent[1].Op != "c" {
		t.Fatalf("ring of 2 after 3 ops = %v, want [b c] oldest first", recent)
	}
	if tr.Find(ids[0]) != nil {
		t.Fatal("evicted tree still findable")
	}
	if got := tr.Find(ids[2]); got == nil || got.Op != "c" {
		t.Fatal("Find missed a retained tree")
	}
	if got := tr.FindOp("b"); got == nil || got.TraceID != ids[1] {
		t.Fatal("FindOp missed a retained tree")
	}
	if tr.FindOp("nope") != nil {
		t.Fatal("FindOp invented a tree")
	}
}

func TestContextSpanRoundTrip(t *testing.T) {
	ctx := context.Background()
	if SpanFromContext(ctx) != nil {
		t.Fatal("empty context carries a span")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span should leave the context untouched")
	}
	sp := StartTrace("op", "client")
	ctx2 := ContextWithSpan(ctx, sp)
	if SpanFromContext(ctx2) != sp {
		t.Fatal("span did not round-trip through the context")
	}
}

// TestNilTracerInert: every Tracer method must be callable on nil —
// the instrumented paths carry no enable guards.
func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartOp("x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	tr.Adopt(sp)
	tr.FinishOp(sp)
	if tr.InFlight() != nil || tr.Recent() != nil || tr.Find(1) != nil || tr.FindOp("x") != nil || tr.Node() != "" {
		t.Fatal("nil tracer not inert")
	}
}

// TestDisabledPathZeroAlloc pins the tracing-off hot path at zero
// allocations: context lookup, child spans and completion on a nil
// span must all be free, because every request runs them whether or
// not tracing is on.
func TestDisabledPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		if sp.TraceID() != 0 {
			t.Fatal("untraced context has a trace ID")
		}
		child := sp.StartChild("never")
		child.Fail()
		child.End()
		_ = ContextWithSpan(ctx, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f times per op, want 0", allocs)
	}
}

func TestSlowOpLogger(t *testing.T) {
	var buf bytes.Buffer
	l := SlowOpLogger{
		Log:       slog.New(slog.NewTextHandler(&buf, nil)),
		Threshold: 10 * time.Millisecond,
	}
	l.Observe("write", 0xabc, time.Millisecond, nil)
	if buf.Len() != 0 {
		t.Fatalf("fast clean op logged: %s", buf.String())
	}
	l.Observe("write", 0xabc, 20*time.Millisecond, nil)
	out := buf.String()
	if !strings.Contains(out, "slow op") || !strings.Contains(out, "0000000000000abc") {
		t.Fatalf("slow op log missing warning or trace id: %s", out)
	}
	buf.Reset()
	l.Observe("read", 0xdef, time.Millisecond, context.DeadlineExceeded)
	if !strings.Contains(buf.String(), "op failed") {
		t.Fatalf("failed op not logged: %s", buf.String())
	}
	// Nil logger: free no-op.
	(&SlowOpLogger{}).Observe("x", 1, time.Hour, nil)
	var nl *SlowOpLogger
	nl.Observe("x", 1, time.Hour, nil)
}
