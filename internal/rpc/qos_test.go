package rpc

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"parafile/internal/obs"
	"parafile/internal/qos"
)

// qos_test.go covers the overload path end to end: the tenant and
// retry-after wire extensions, the server-side admission hook, and —
// the load-bearing contract — that an overloaded answer is
// backpressure, not failure: it never advances the circuit breaker,
// and breaker probes are still admitted while the data plane sheds.

// shedLimiter builds a limiter whose data plane always sheds: the
// test holds the only in-flight slot, so every data request queues
// and times out after a few milliseconds. Control ops bypass it.
func shedLimiter(t *testing.T) *qos.Limiter {
	t.Helper()
	lim := qos.NewLimiter(qos.Config{
		MaxInFlight: 1,
		MaxQueue:    1,
		MaxWait:     5 * time.Millisecond,
	})
	rel, err := lim.Acquire(context.Background(), "hog", qos.OpWrite, 1)
	if err != nil {
		t.Fatalf("occupying the limiter: %v", err)
	}
	t.Cleanup(rel)
	return lim
}

func TestHelloTenantRoundTrip(t *testing.T) {
	for _, want := range []string{"", "gold"} {
		var got hello
		if err := Decode(roundTripFrame(t, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion, Tenant: want}), MsgHello), &got); err != nil {
			t.Fatal(err)
		}
		if got.Ver != MaxProtoVersion || got.Tenant != want {
			t.Fatalf("decoded (ver=%d tenant=%q), want (%d, %q)", got.Ver, got.Tenant, MaxProtoVersion, want)
		}
	}
	// A preface cut short anywhere is corrupt, never a default tenant.
	payload := roundTripFrame(t, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion, Tenant: "gold"}), MsgHello)
	for cut := 0; cut < len(payload); cut++ {
		if err := Decode(payload[:cut], &hello{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("hello truncated at %d/%d: %v", cut, len(payload), err)
		}
	}
}

func TestErrorRetryAfterRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in, want time.Duration
	}{
		{0, 0},
		{250 * time.Millisecond, 250 * time.Millisecond},
		{3 * time.Second, 3 * time.Second},
		{100 * time.Microsecond, time.Millisecond}, // sub-ms rounds up
	} {
		msg := Encode(nil, MsgError, &RemoteError{Code: ErrCodeOverloaded, Msg: "shed", RetryAfter: tc.in})
		re := &RemoteError{}
		if err := Decode(roundTripFrame(t, msg, MsgError), re); err != nil {
			t.Fatal(err)
		}
		if re.Code != ErrCodeOverloaded || re.RetryAfter != tc.want {
			t.Fatalf("decoded code %d retry %v, want %d %v", re.Code, re.RetryAfter, ErrCodeOverloaded, tc.want)
		}
		if !errors.Is(re, qos.ErrOverloaded) {
			t.Fatalf("overloaded RemoteError does not match qos.ErrOverloaded")
		}
	}
}

func TestCloseRemoveRoundTrip(t *testing.T) {
	keep := Encode(nil, MsgClose, &CloseReq{File: "f"})
	_, payload, err := ParseFrame(frameBody(frameHdr{}, keep))
	if err != nil {
		t.Fatal(err)
	}
	req := &CloseReq{}
	if err := Decode(payload, req); err != nil || req.File != "f" || req.Remove {
		t.Fatalf("decoded %+v err %v", req, err)
	}

	rm := Encode(nil, MsgClose, &CloseReq{File: "f", Remove: true})
	if bytes.Equal(keep, rm) {
		t.Fatal("Remove flag did not change the encoding")
	}
	_, payload, _ = ParseFrame(frameBody(frameHdr{}, rm))
	if err := Decode(payload, req); err != nil || !req.Remove {
		t.Fatalf("decoded %+v err %v", req, err)
	}
}

// TestBackoffJitterDecorrelates pins two clients to different seeds
// and checks their retry schedules diverge — the deterministic
// backoff this replaces made every client that failed together retry
// in lockstep, re-spiking the node that shed them.
func TestBackoffJitterDecorrelates(t *testing.T) {
	mk := func(seed int64) *Client {
		return NewClient(ClientConfig{
			Addr:        "127.0.0.1:1",
			BackoffSeed: seed,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  time.Second,
		})
	}
	a, b := mk(1), mk(2)
	defer a.Close()
	defer b.Close()
	differ := false
	for attempt := 1; attempt <= 8; attempt++ {
		pa, pb := a.backoff(attempt), b.backoff(attempt)
		d := a.cfg.BackoffBase << (attempt - 1)
		if d > a.cfg.BackoffMax || d <= 0 {
			d = a.cfg.BackoffMax
		}
		for _, p := range []time.Duration{pa, pb} {
			if p < d/2 || p > d {
				t.Fatalf("attempt %d: pause %v outside [%v,%v]", attempt, p, d/2, d)
			}
		}
		if pa != pb {
			differ = true
		}
	}
	if !differ {
		t.Fatal("two clients with different seeds produced identical schedules")
	}
}

// TestOverloadedNeverTripsBreaker is the backpressure contract: a
// shedding node is healthy, so overloaded answers must not advance
// the breaker's failure count — only transport failures may.
func TestOverloadedNeverTripsBreaker(t *testing.T) {
	lim := shedLimiter(t)
	addr, _ := startServer(t, ServerConfig{QoS: lim})

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:             addr,
		Metrics:          reg,
		MaxRetries:       -1, // single attempt: surface the raw shed
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	defer c.Close()
	ctx := context.Background()
	label := `{node="` + addr + `"}`

	data := []byte("x")
	for i := 0; i < 4; i++ {
		err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 0, Data: data})
		if !errors.Is(err, qos.ErrOverloaded) {
			t.Fatalf("write %d: %v, want overloaded", i, err)
		}
		if errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("write %d fast-failed: sheds advanced the breaker", i)
		}
	}
	if got := reg.Gauge(MetricBreakerState + label).Value(); got != 0 {
		t.Fatalf("breaker state = %d after 4 sheds, want 0 (closed)", got)
	}
	if opens := reg.Counter(MetricBreakerOpens + label).Value(); opens != 0 {
		t.Fatalf("breaker opened %d time(s) on overload answers", opens)
	}
	if shed := reg.Counter(MetricClientShed).Value(); shed != 4 {
		t.Fatalf("client shed counter = %d, want 4", shed)
	}
	if fails := reg.Counter(MetricClientFailures).Value(); fails != 0 {
		t.Fatalf("client failures = %d, want 0 (shed is not failure)", fails)
	}

	// Control plane bypasses the shed: the breaker's probe op works.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping under full data-plane shed: %v", err)
	}
}

// TestBreakerProbeAdmittedUnderShed opens the breaker with real
// transport failures, then revives the endpoint as a fully shedding
// server: the half-open Ping probe must be admitted (control ops
// bypass admission), close the breaker, and let the request through
// to its typed overloaded answer instead of ErrBreakerOpen.
func TestBreakerProbeAdmittedUnderShed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:             addr,
		Metrics:          reg,
		DialTimeout:      250 * time.Millisecond,
		MaxRetries:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  20 * time.Millisecond,
	})
	defer c.Close()
	ctx := context.Background()
	label := `{node="` + addr + `"}`

	data := []byte("x")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 0, Data: data}); err == nil {
		t.Fatal("write against a dead address succeeded")
	}
	if opens := reg.Counter(MetricBreakerOpens + label).Value(); opens != 1 {
		t.Fatalf("opens = %d after a transport failure, want 1", opens)
	}

	// Revive the endpoint as a server whose data plane sheds all.
	lim := shedLimiter(t)
	srv := NewServer(ServerConfig{QoS: lim})
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		<-done
	})

	time.Sleep(30 * time.Millisecond) // past the cooldown: next call probes
	err = c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 0, Data: data})
	if errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe was not admitted under shed: %v", err)
	}
	if !errors.Is(err, qos.ErrOverloaded) {
		t.Fatalf("write after probe: %v, want overloaded", err)
	}
	if probes := reg.Counter(MetricBreakerProbes + label).Value(); probes < 1 {
		t.Fatal("no breaker probe recorded")
	}
	if got := reg.Gauge(MetricBreakerState + label).Value(); got != 0 {
		t.Fatalf("breaker state = %d after a successful probe, want 0 (closed)", got)
	}
}

// TestTenantQuotaOverWire checks the tenant travels end to end: a
// client that names a quota'd tenant in its Hello is throttled by the
// server's per-tenant bucket — with a usable RetryAfter — while an
// anonymous client on the same daemon is untouched.
func TestTenantQuotaOverWire(t *testing.T) {
	lim := qos.NewLimiter(qos.Config{
		Tenants: map[string]qos.TenantLimit{
			"bulk": {OpsPerSec: 0.001, BurstOps: 1},
		},
	})
	addr, _ := startServer(t, ServerConfig{QoS: lim})
	phys := encodeTestPhys(t)
	ctx := context.Background()

	bulk := NewClient(ClientConfig{Addr: addr, Tenant: "bulk", MaxRetries: -1})
	defer bulk.Close()
	anon := NewClient(ClientConfig{Addr: addr, MaxRetries: -1})
	defer anon.Close()

	if err := bulk.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	seg := &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}

	// First write spends bulk's burst; the second is over quota.
	if err := bulk.WriteSegments(ctx, seg); err != nil {
		t.Fatalf("first bulk write: %v", err)
	}
	err := bulk.WriteSegments(ctx, seg)
	if !errors.Is(err, qos.ErrOverloaded) {
		t.Fatalf("second bulk write: %v, want overloaded", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("overloaded answer carried no RetryAfter: %v", err)
	}

	// The anonymous client lands in the default class: no quota.
	for i := 0; i < 3; i++ {
		if err := anon.WriteSegments(ctx, seg); err != nil {
			t.Fatalf("anonymous write %d: %v", i, err)
		}
	}
}

// TestClientPacingShedsLocally: after a shed answer with a RetryAfter
// hint, the client refuses data-plane attempts inside the hinted
// window itself — same typed overload, no payload shipped — while
// control ops still reach the node.
func TestClientPacingShedsLocally(t *testing.T) {
	lim := qos.NewLimiter(qos.Config{
		Tenants: map[string]qos.TenantLimit{
			// One burst op, then a refill horizon far past the test: the
			// second write's RetryAfter hint (capped at maxClientPace)
			// keeps the gate closed for the rest of the test.
			"bulk": {OpsPerSec: 0.001, BurstOps: 1},
		},
	})
	addr, _ := startServer(t, ServerConfig{QoS: lim})
	phys := encodeTestPhys(t)
	ctx := context.Background()

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, Tenant: "bulk", MaxRetries: -1, Metrics: reg})
	defer c.Close()

	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	seg := &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}

	if err := c.WriteSegments(ctx, seg); err != nil {
		t.Fatalf("first write: %v", err)
	}
	err := c.WriteSegments(ctx, seg)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("second write: %v, want a wire shed (*RemoteError)", err)
	}
	if paced := reg.Counter(MetricClientPaced).Value(); paced != 0 {
		t.Fatalf("paced = %d before any local shed, want 0", paced)
	}

	// Inside the hinted window: shed locally, without touching the wire.
	err = c.WriteSegments(ctx, seg)
	if !errors.Is(err, qos.ErrOverloaded) {
		t.Fatalf("paced write: %v, want overloaded", err)
	}
	if errors.As(err, &re) {
		t.Fatalf("paced write reached the wire: %v", err)
	}
	if paced := reg.Counter(MetricClientPaced).Value(); paced != 1 {
		t.Fatalf("paced = %d after a local shed, want 1", paced)
	}
	if shed := reg.Counter(MetricClientShed).Value(); shed != 2 {
		t.Fatalf("shed = %d (one wire + one local), want 2", shed)
	}
	if fails := reg.Counter(MetricClientFailures).Value(); fails != 0 {
		t.Fatalf("failures = %d, want 0", fails)
	}

	// Control plane bypasses the gate like it bypasses admission.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping under client pacing: %v", err)
	}

	// The gate is a capped hint, not a latch: a RetryAfter beyond
	// maxClientPace closes it for at most maxClientPace, and later
	// shorter hints never shorten an already-set deadline.
	if got := c.paceRemaining(); got <= 0 || got > maxClientPace {
		t.Fatalf("pace remaining = %v, want within (0, %v]", got, maxClientPace)
	}
	before := c.paceRemaining()
	c.paceFor(time.Millisecond)
	if got := c.paceRemaining(); got < before-50*time.Millisecond {
		t.Fatalf("a shorter hint rewound the gate: %v -> %v", before, got)
	}
}

// TestClientPaceEpisode: past a closed window the client is still in
// an overload episode — wire attempts resume (the node's refill has
// accumulated), but they trickle under the paceBurst in-flight cap
// rather than flooding, and the episode arms only after a wire shed.
func TestClientPaceEpisode(t *testing.T) {
	// 20 ops/s refill, burst 1: the first write spends the burst, the
	// second is shed with RetryAfter ≈ 50ms (gate ≈ 400ms stretched),
	// and by the time the test sleeps the window out the bucket holds
	// several ops again, so post-window writes are admitted.
	lim := qos.NewLimiter(qos.Config{
		Tenants: map[string]qos.TenantLimit{
			"bulk": {OpsPerSec: 20, BurstOps: 1},
		},
	})
	addr, _ := startServer(t, ServerConfig{QoS: lim})
	phys := encodeTestPhys(t)
	ctx := context.Background()

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, Tenant: "bulk", MaxRetries: -1, Metrics: reg})
	defer c.Close()

	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	seg := &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}

	if c.paceActive() {
		t.Fatal("fresh client starts inside an overload episode")
	}
	if err := c.WriteSegments(ctx, seg); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if c.paceActive() {
		t.Fatal("an admitted write armed the episode")
	}
	var re *RemoteError
	if err := c.WriteSegments(ctx, seg); !errors.As(err, &re) {
		t.Fatalf("second write: %v, want a wire shed", err)
	}
	if !c.paceActive() {
		t.Fatal("a wire shed did not arm the episode")
	}
	gate := c.paceRemaining()
	if gate <= 0 {
		t.Fatal("wire shed left the gate open")
	}

	// Wait out the window: attempts reach the wire again (under the
	// in-flight cap) and the refilled bucket admits them.
	time.Sleep(gate + 50*time.Millisecond)
	if err := c.WriteSegments(ctx, seg); err != nil {
		t.Fatalf("write after the window: %v", err)
	}
	if n := c.paceSlots.Load(); n != 0 {
		t.Fatalf("%d pace slots leaked after the attempt settled", n)
	}
	if !c.paceActive() {
		t.Fatal("episode ended the moment one write was admitted")
	}

	// The cap sheds overflow locally: with every slot taken, an
	// attempt is paced without reaching the wire.
	c.paceSlots.Store(paceBurst)
	err := c.WriteSegments(ctx, seg)
	c.paceSlots.Store(0)
	if !errors.Is(err, qos.ErrOverloaded) || errors.As(err, &re) {
		t.Fatalf("write with all slots busy: %v, want a local shed", err)
	}
	if paced := reg.Counter(MetricClientPaced).Value(); paced < 1 {
		t.Fatal("slot-capped shed not counted as paced")
	}
}
