package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"parafile/internal/codec"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/part"
	"parafile/internal/redist"
)

// client_test.go exercises the failure half of the client: connection
// drops mid-request (retried with backoff, visible in the retry
// counters), unresponsive peers (deadline expiry, visible in the
// timeout counter), and server-reported errors (answered, never
// retried).

// startServer runs an in-process daemon on a loopback listener.
func startServer(t *testing.T, cfg ServerConfig) (string, *Server) {
	t.Helper()
	srv := NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// encodeTestPhys is a minimal single-subfile physical partition for
// direct wire-level tests.
func encodeTestPhys(t *testing.T) []byte {
	t.Helper()
	pattern := part.MustPattern(
		part.Element{Name: "s0", Set: falls.Set{falls.MustLeaf(0, 63, 64, 1)}},
	)
	return codec.EncodeFile(part.MustFile(0, pattern))
}

// flakyProxy forwards TCP connections to backend, but kills the first
// `drops` connections after a few bytes — a connection drop mid-write
// from the client's point of view.
func flakyProxy(t *testing.T, backend string, drops int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n.Add(1) <= drops {
				// Read a little of the request, then slam the door.
				io.ReadFull(conn, make([]byte, 4))
				conn.Close()
				continue
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.(*net.TCPConn).CloseWrite() }()
			go func() { io.Copy(conn, up); conn.(*net.TCPConn).CloseWrite() }()
		}
	}()
	return ln.Addr().String()
}

func TestClientRetriesAfterConnectionDrop(t *testing.T) {
	backend, _ := startServer(t, ServerConfig{})
	proxy := flakyProxy(t, backend, 1)

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:        proxy,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	})
	defer c.Close()

	phys := encodeTestPhys(t)
	if err := c.CreateFile(context.Background(), &CreateFileReq{Name: "f", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatalf("create through flaky proxy: %v", err)
	}
	data := []byte("survives the drop")
	err := c.WriteSegments(context.Background(), &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data})
	if err != nil {
		t.Fatalf("write through flaky proxy: %v", err)
	}
	got := make([]byte, len(data))
	err = c.ReadSegments(context.Background(), &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, N: int64(len(data))}, got)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q after retried write, want %q", got, data)
	}
	if v := reg.Counter(MetricClientRetries).Value(); v < 1 {
		t.Fatalf("retries counter = %d, want >= 1 after a dropped connection", v)
	}
	if v := reg.Counter(MetricClientFailures).Value(); v != 0 {
		t.Fatalf("failures counter = %d, want 0 (every call eventually succeeded)", v)
	}
}

func TestClientTimeout(t *testing.T) {
	// A listener that accepts and then reads forever: the request lands
	// but no response ever comes, so the read deadline expires.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:        ln.Addr().String(),
		ReadTimeout: 30 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	})
	defer c.Close()

	_, err = c.Stat(context.Background(), "f", 0)
	if err == nil {
		t.Fatal("stat of a black-hole server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error %v does not unwrap to a timeout", err)
	}
	if v := reg.Counter(MetricClientTimeouts).Value(); v < 1 {
		t.Fatalf("timeouts counter = %d, want >= 1", v)
	}
	if v := reg.Counter(MetricClientFailures).Value(); v != 1 {
		t.Fatalf("failures counter = %d, want 1 (retry budget exhausted once)", v)
	}
	if v := reg.Counter(MetricClientRetries).Value(); v != 1 {
		t.Fatalf("retries counter = %d, want 1 (MaxRetries=1)", v)
	}
}

func TestClientDoesNotRetryRemoteErrors(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, BackoffBase: time.Millisecond, Metrics: reg})
	defer c.Close()

	_, err := c.Stat(context.Background(), "no-such-file", 0)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RemoteError", err)
	}
	if re.Code != ErrCodeUnknownFile {
		t.Fatalf("code %d, want %d (unknown file)", re.Code, ErrCodeUnknownFile)
	}
	if v := reg.Counter(MetricClientRetries).Value(); v != 0 {
		t.Fatalf("retries counter = %d, want 0: remote errors are answers, not transport failures", v)
	}
}

func TestClientDialFailure(t *testing.T) {
	// A port with nothing listening: grab one, then release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{Addr: addr, MaxRetries: 1, BackoffBase: time.Millisecond, Metrics: reg})
	defer c.Close()
	if err := c.CloseFile(context.Background(), "f"); err == nil {
		t.Fatal("call to a dead address succeeded")
	}
	if v := reg.Counter(MetricClientFailures).Value(); v != 1 {
		t.Fatalf("failures counter = %d, want 1", v)
	}
}

func TestServerRejectsGarbageFrames(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// After the preface, a message of an unknown type: the server
	// answers on the request's stream with a bad-request error instead
	// of dropping the connection or panicking.
	if err := WriteFrameV(conn, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion}), MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	ok, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseFrame(ok)
	if _, err := writeFrame(conn, MaxProtoVersion, &frameHdr{sid: 9}, []byte{0x7E, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrame(body)
	h, msgType, payload, err := parseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if h.sid != 9 {
		t.Fatalf("reply on stream %d, want 9", h.sid)
	}
	if msgType != MsgError {
		t.Fatalf("response type %#x, want error", msgType)
	}
	re := &RemoteError{}
	if err := Decode(payload, re); err != nil {
		t.Fatal(err)
	}
	if re.Code != ErrCodeBadRequest {
		t.Fatalf("code %d, want bad request", re.Code)
	}
}

// TestUnaryWriteSizeMismatchRefused: a single-frame write whose payload
// is not what its window selects is refused up front with a
// bad-request answer, exactly like a streamed one — a short payload
// must not scatter a prefix before failing (a torn write from a bad
// request), an over-long one must not be silently truncated.
func TestUnaryWriteSizeMismatchRefused(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	// Bytes [0,3] and [8,11] of every 16: the window [0,31] selects 16.
	enc := redist.EncodeProjection(&redist.Projection{
		Set: falls.Set{falls.MustLeaf(0, 3, 8, 2)}, Period: 16, Bytes: 8,
	})
	fp := Fingerprint(enc)
	if err := c.SetView(ctx, fp, enc); err != nil {
		t.Fatal(err)
	}
	write := func(fp uint64, n int, fill byte) error {
		data := make([]byte, n)
		for i := range data {
			data[i] = fill
		}
		return c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Fingerprint: fp, Lo: 0, Hi: 31, Data: data})
	}
	snapshot := func() []byte {
		got := make([]byte, 32)
		if err := c.ReadSegments(ctx, &ReadSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 31, N: 32}, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if err := write(fp, 16, 'A'); err != nil {
		t.Fatalf("well-formed projected write: %v", err)
	}
	before := snapshot()
	for _, tc := range []struct {
		name string
		fp   uint64
		n    int
	}{
		{"short projected", fp, 10},
		{"long projected", fp, 20},
		{"short contiguous", 0, 31},
		{"long contiguous", 0, 33},
	} {
		err := write(tc.fp, tc.n, 'Z')
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeBadRequest {
			t.Fatalf("%s write of %d bytes: %v, want a bad-request RemoteError", tc.name, tc.n, err)
		}
		if got := snapshot(); string(got) != string(before) {
			t.Fatalf("%s write changed the subfile:\n before %q\n after  %q", tc.name, before, got)
		}
	}
}

// TestIsReplicaStoreOf pins the replica-store matcher to exactly the
// names clusterfile.ReplicaName produces: base+"~r"+digits. Anything
// looser would let the epoch fan-out and the removing-close sweep
// catch distinct client files that merely share the prefix.
func TestIsReplicaStoreOf(t *testing.T) {
	for _, tc := range []struct {
		name, base string
		want       bool
	}{
		{"data~r1", "data", true},
		{"data~r12", "data", true},
		{"data", "data", false},
		{"data~r", "data", false},
		{"data~rX", "data", false},
		{"data~r1x", "data", false},
		{"database~r1", "data", false},
		{"data~r1", "other", false},
	} {
		if got := isReplicaStoreOf(tc.name, tc.base); got != tc.want {
			t.Errorf("isReplicaStoreOf(%q, %q) = %v, want %v", tc.name, tc.base, got, tc.want)
		}
	}
}

// TestRemoveStoreSweepsOnlyReplicaStores: a removing close retires the
// file's replica stores (name~r<digits>) with it, but must not close
// and delete a distinct client file whose name merely starts with the
// same prefix.
func TestRemoveStoreSweepsOnlyReplicaStores(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	phys := encodeTestPhys(t)

	for _, name := range []string{"data", "data~r1", "data~rX"} {
		if err := c.CreateFile(ctx, &CreateFileReq{Name: name, Phys: phys, Subfiles: []int{0}}); err != nil {
			t.Fatalf("create %q: %v", name, err)
		}
	}
	if err := c.RemoveStore(ctx, "data"); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := c.Stat(ctx, "data~r1", 0); !errors.As(err, &re) || re.Code != ErrCodeUnknownFile {
		t.Fatalf("replica store survived the sweep: %v", err)
	}
	if _, err := c.Stat(ctx, "data~rX", 0); err != nil {
		t.Fatalf("distinct file swept away with its prefix twin: %v", err)
	}
}

// TestCreateFileRefusesEscapingName: a daemon opens the stores of a
// file under its data directory as "<name>.subfileNN", so a name from
// the wire that is empty, a dot name, or holds a path separator or NUL
// is refused with a bad-request answer before any store is opened —
// "../escape" must not create a file beside the data directory.
func TestCreateFileRefusesEscapingName(t *testing.T) {
	root := t.TempDir()
	addr, _ := startServer(t, ServerConfig{DataDir: filepath.Join(root, "data")})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	phys := encodeTestPhys(t)
	for _, name := range []string{"../escape", "", ".", "..", "a/b", `a\b`, "a\x00b"} {
		err := c.CreateFile(ctx, &CreateFileReq{Name: name, Phys: phys, Subfiles: []int{0}})
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeBadRequest {
			t.Errorf("CreateFile(%q) = %v, want a bad-request refusal", name, err)
		}
	}
	if escaped, _ := filepath.Glob(filepath.Join(root, "*.subfile*")); len(escaped) != 0 {
		t.Fatalf("stores created outside the data directory: %v", escaped)
	}
	// Store names of rebalanced generations and replica tiers are fine.
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "a@2~r1", Phys: phys, Subfiles: []int{0}}); err != nil {
		t.Fatalf("CreateFile(a@2~r1): %v", err)
	}
}
