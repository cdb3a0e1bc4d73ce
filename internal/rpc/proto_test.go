package rpc

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
)

// proto_test.go covers the connection-level protocol: the CRC32C frame
// trailer and its typed corruption error, the hello preface (accepted,
// and refused for a peer of another protocol generation), the single
// multiplexed connection a client keeps per node, and the Checksum RPC
// the scrub path rides on.

func TestFrameRoundTrip(t *testing.T) {
	msg := Encode(nil, MsgStat, &StatReq{File: "f", Subfile: 3})
	var buf bytes.Buffer
	if err := WriteFrameV(&buf, msg, MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != MaxProtoVersion {
		t.Fatalf("frame version %d, want %d", got[0], MaxProtoVersion)
	}
	msgType, payload, err := ParseFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgStat {
		t.Fatalf("type %#x, want MsgStat", msgType)
	}
	req := &StatReq{}
	if err := Decode(payload, req); err != nil {
		t.Fatal(err)
	}
	if req.File != "f" || req.Subfile != 3 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	msg := Encode(nil, MsgStat, &StatReq{File: "file-name", Subfile: 1})
	var clean bytes.Buffer
	if err := WriteFrameV(&clean, msg, MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	wire := clean.Bytes()
	// Flip every byte past the length prefix in turn: each single-byte
	// corruption — in the version byte, header, payload or trailer —
	// must surface as ErrCorruptFrame, never as a clean read.
	for i := 4; i < len(wire); i++ {
		damaged := append([]byte(nil), wire...)
		damaged[i] ^= 0x40
		if _, err := ReadFrame(bytes.NewReader(damaged), DefaultMaxFrame); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: error %v, want ErrCorruptFrame", i, err)
		}
	}
	// The trailer itself checks out when untouched.
	if FrameChecksum(msg) == 0 {
		t.Fatal("non-trivial body checksums to zero (suspicious)")
	}
}

func TestNegotiationDefaultUpgradesToMux(t *testing.T) {
	// Every call of a client rides one multiplexed connection: the
	// preface is accepted once, and nothing else is ever dialed.
	reg := obs.NewRegistry()
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr, Metrics: reg})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "f", 0); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	m := c.mux
	c.mu.Unlock()
	if m == nil || !m.alive() {
		t.Fatal("no live multiplexed connection after a call")
	}
	if dials := reg.Counter(MetricClientDials).Value(); dials != 1 {
		t.Fatalf("%d dials for two calls, want 1", dials)
	}
}

// helloExchange sends hello as a connection's first frame and returns
// the server's verdict, then checks the server closed the connection
// iff it refused.
func helloExchange(t *testing.T, addr string, write func(conn net.Conn) error) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := write(conn); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("no verdict on the preface: %v", err)
	}
	msgType, payload, err := ParseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if msgType == MsgOK {
		return msgType, payload
	}
	if _, err := ReadFrame(conn, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("connection not closed after a refused preface: %v", err)
	}
	return msgType, payload
}

func TestHelloPrefaceOtherVersionRefused(t *testing.T) {
	// A peer from another protocol generation — in the hello payload,
	// or in the frame's own version byte — gets a typed bad-request
	// answer and a closed connection, not a hang, a misparse or a
	// quiet downgrade.
	addr, _ := startServer(t, ServerConfig{})
	for name, write := range map[string]func(net.Conn) error{
		"hello names another version": func(conn net.Conn) error {
			return WriteFrameV(conn, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion + 1}), MaxProtoVersion)
		},
		"frame of another version": func(conn net.Conn) error {
			return WriteFrameV(conn, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion - 1}), MaxProtoVersion-1)
		},
		"no preface at all": func(conn net.Conn) error {
			return WriteFrameV(conn, Encode(nil, MsgPing, nil), MaxProtoVersion)
		},
	} {
		msgType, payload := helloExchange(t, addr, write)
		if msgType != MsgError {
			t.Fatalf("%s: answered with type %#x, want MsgError", name, msgType)
		}
		re := &RemoteError{}
		if err := Decode(payload, re); err != nil || re.Code != ErrCodeBadRequest {
			t.Fatalf("%s: got (%+v, %v), want a bad-request error", name, re, err)
		}
	}
	// And the matching preface is accepted.
	if msgType, _ := helloExchange(t, addr, func(conn net.Conn) error {
		return WriteFrameV(conn, Encode(nil, MsgHello, &hello{Ver: MaxProtoVersion, Tenant: "gold"}), MaxProtoVersion)
	}); msgType != MsgOK {
		t.Fatalf("matching preface answered with type %#x, want MsgOK", msgType)
	}
}

func TestClientRefusedByOtherVersionDaemon(t *testing.T) {
	// The client side of the same refusal: a daemon that answers the
	// preface with a bad-request error fails the call with that typed
	// error within ReadTimeout — no retry storm, no downgrade.
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
			if body, err := ReadFrame(conn, 0); err == nil {
				ReleaseFrame(body)
				WriteFrameV(conn, Encode(nil, MsgError, &RemoteError{Code: ErrCodeBadRequest, Msg: "protocol version 4, want 9"}), MaxProtoVersion)
			}
			conn.Close()
		}
	}()
	c := NewClient(ClientConfig{Addr: ln.Addr().String(), ReadTimeout: 2 * time.Second, BackoffBase: time.Millisecond})
	defer c.Close()
	start := time.Now()
	err = c.Ping(context.Background())
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeBadRequest {
		t.Fatalf("ping against a refusing daemon: %v, want a bad-request RemoteError", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("refusal took %v", time.Since(start))
	}
}

func TestChecksumRPC(t *testing.T) {
	addr, _ := startServer(t, ServerConfig{})
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	data := []byte("checksum me, zero-fill the rest")
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: int64(len(data)) - 1, Data: data}); err != nil {
		t.Fatal(err)
	}

	table := crc32.MakeTable(crc32.Castagnoli)
	want := crc32.Checksum(data, table)
	got, err := c.Checksum(ctx, "f", 0, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %08x, want %08x", got, want)
	}

	// Beyond-EOF bytes checksum as zeroes (the sparse read semantics).
	padded := append(append([]byte(nil), data...), make([]byte, 10)...)
	want = crc32.Checksum(padded, table)
	got, err = c.Checksum(ctx, "f", 0, 0, int64(len(padded)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("overhang checksum %08x, want %08x", got, want)
	}

	// Negative ranges are a remote bad-request, not a crash.
	if _, err := c.Checksum(ctx, "f", 0, -1, 4); err == nil {
		t.Fatal("negative offset accepted")
	}
	var re *RemoteError
	if _, err := c.Checksum(ctx, "missing", 0, 0, 4); !errors.As(err, &re) {
		t.Fatalf("checksum of unknown file: %v", err)
	}
}

func TestClientRetriesCorruptResponseFrame(t *testing.T) {
	// One byte of the first response is flipped in flight. The frame
	// trailer catches it; the client drops the connection and the retry
	// gets a clean answer.
	addr, _ := startServer(t, ServerConfig{})
	inj := fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Node: fault.AnyNode, Op: fault.OpConnRead, Kind: fault.Corrupt, Times: 1},
	}}, nil)
	reg := obs.NewRegistry()
	c := NewClient(ClientConfig{
		Addr:        addr,
		Dialer:      inj.Dialer(nil),
		ReadTimeout: 500 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Metrics:     reg,
	})
	defer c.Close()
	ctx := context.Background()
	if err := c.CreateFile(ctx, &CreateFileReq{Name: "f", Phys: encodeTestPhys(t), Subfiles: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if inj.Injected(0) == 0 {
		t.Fatal("fault rule never fired")
	}
	if reg.Counter(MetricClientRetries).Value() == 0 {
		t.Fatal("corrupt frame was not retried")
	}
	// And the channel still works for real payloads afterwards.
	if err := c.WriteSegments(ctx, &WriteSegsReq{File: "f", Subfile: 0, Lo: 0, Hi: 3, Data: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Stat(ctx, "f", 0); err != nil || n != 4 {
		t.Fatalf("stat after recovery = (%d, %v)", n, err)
	}
}
