package rpc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"parafile/internal/obs"
)

// wire_test.go checks the frame codec the hard way: seeded-random
// round-trips for every message type, then deliberately truncated and
// corrupted frames, which must come back as clean ErrCorrupt-wrapped
// errors — never a panic, never a silent misparse.

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

// frameBody wraps a message in the frame body ReadFrame would hand
// back for it.
func frameBody(h frameHdr, msg []byte) []byte {
	return append(appendFrameHdr(nil, MaxProtoVersion, &h), msg...)
}

// roundTrip pushes a message through WriteFrameV/ReadFrame and
// returns the re-parsed payload.
func roundTrip(t *testing.T, msg []byte, wantType byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameV(&buf, msg, MaxProtoVersion); err != nil {
		t.Fatalf("WriteFrameV: %v", err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	msgType, payload, err := ParseFrame(got)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if msgType != wantType {
		t.Fatalf("message type %#x, want %#x", msgType, wantType)
	}
	return payload
}

func TestCreateFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		req := &CreateFileReq{
			Name:   randString(rng, 40),
			Phys:   randBytes(rng, 256),
			Reopen: rng.Intn(2) == 1,
		}
		for j := rng.Intn(8); j > 0; j-- {
			req.Subfiles = append(req.Subfiles, rng.Intn(64))
		}
		payload := roundTrip(t, AppendCreateFile(nil, req), MsgCreateFile)
		got, err := DecodeCreateFile(payload)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got.Name != req.Name || !bytes.Equal(got.Phys, req.Phys) || got.Reopen != req.Reopen {
			t.Fatalf("iter %d: decoded %+v, want %+v", i, got, req)
		}
		if len(got.Subfiles) != len(req.Subfiles) {
			t.Fatalf("iter %d: %d subfiles, want %d", i, len(got.Subfiles), len(req.Subfiles))
		}
		for k := range req.Subfiles {
			if got.Subfiles[k] != req.Subfiles[k] {
				t.Fatalf("iter %d: subfile[%d] = %d, want %d", i, k, got.Subfiles[k], req.Subfiles[k])
			}
		}
	}
}

func TestSetViewRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		req := &SetViewReq{Fingerprint: rng.Uint64(), Proj: randBytes(rng, 512)}
		payload := roundTrip(t, AppendSetView(nil, req), MsgSetView)
		got, err := DecodeSetView(payload)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got.Fingerprint != req.Fingerprint || !bytes.Equal(got.Proj, req.Proj) {
			t.Fatalf("iter %d: decoded %+v, want %+v", i, got, req)
		}
	}
}

func TestWriteSegsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		req := &WriteSegsReq{
			File:        randString(rng, 30),
			Subfile:     rng.Int63n(64),
			Fingerprint: rng.Uint64(),
			Lo:          rng.Int63n(1 << 30),
			Hi:          rng.Int63n(1 << 30),
			Data:        randBytes(rng, 1024),
		}
		payload := roundTrip(t, AppendWriteSegs(nil, req), MsgWriteSegs)
		got, err := DecodeWriteSegs(payload)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got.File != req.File || got.Subfile != req.Subfile ||
			got.Fingerprint != req.Fingerprint || got.Lo != req.Lo || got.Hi != req.Hi ||
			!bytes.Equal(got.Data, req.Data) {
			t.Fatalf("iter %d: decoded %+v, want %+v", i, got, req)
		}
	}
}

func TestReadSegsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		req := &ReadSegsReq{
			File:        randString(rng, 30),
			Subfile:     rng.Int63n(64),
			Fingerprint: rng.Uint64(),
			Lo:          rng.Int63n(1 << 30),
			Hi:          rng.Int63n(1 << 30),
			N:           rng.Int63n(1 << 20),
		}
		payload := roundTrip(t, AppendReadSegs(nil, req), MsgReadSegs)
		got, err := DecodeReadSegs(payload)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if *got != *req {
			t.Fatalf("iter %d: decoded %+v, want %+v", i, got, req)
		}
	}
}

func TestStatCloseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		sreq := &StatReq{File: randString(rng, 30), Subfile: rng.Int63n(64)}
		payload := roundTrip(t, AppendStat(nil, sreq), MsgStat)
		gs, err := DecodeStat(payload)
		if err != nil {
			t.Fatalf("stat iter %d: %v", i, err)
		}
		if *gs != *sreq {
			t.Fatalf("stat iter %d: decoded %+v, want %+v", i, gs, sreq)
		}

		creq := &CloseReq{File: randString(rng, 30)}
		payload = roundTrip(t, AppendClose(nil, creq), MsgClose)
		gc, err := DecodeClose(payload)
		if err != nil {
			t.Fatalf("close iter %d: %v", i, err)
		}
		if *gc != *creq {
			t.Fatalf("close iter %d: decoded %+v, want %+v", i, gc, creq)
		}
	}
}

func TestResponseRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if payload := roundTrip(t, AppendOK(nil), MsgOK); len(payload) != 0 {
		t.Fatalf("OK payload %d bytes, want 0", len(payload))
	}
	for i := 0; i < 100; i++ {
		data := randBytes(rng, 2048)
		got, err := DecodeData(roundTrip(t, AppendData(nil, data), MsgData))
		if err != nil {
			t.Fatalf("data iter %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("data iter %d: %d bytes, want %d", i, len(got), len(data))
		}

		n := rng.Int63()
		gn, err := DecodeStatResp(roundTrip(t, AppendStatResp(nil, n), MsgStatResp))
		if err != nil {
			t.Fatalf("statresp iter %d: %v", i, err)
		}
		if gn != n {
			t.Fatalf("statresp iter %d: %d, want %d", i, gn, n)
		}

		re, err := DecodeError(roundTrip(t, AppendError(nil, uint64(rng.Intn(6)), randString(rng, 60)), MsgError))
		if err != nil {
			t.Fatalf("error iter %d: %v", i, err)
		}
		if re.Code > 5 {
			t.Fatalf("error iter %d: code %d out of range", i, re.Code)
		}
	}
}

func TestFingerprintNeverZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if Fingerprint(randBytes(rng, 64)) == 0 {
			t.Fatal("fingerprint of random bytes is zero (reserved)")
		}
	}
	if Fingerprint(nil) == 0 {
		t.Fatal("fingerprint of empty input is zero (reserved)")
	}
}

// TestTruncatedFrames feeds every prefix of a valid frame stream to
// ReadFrame: each must fail with a clean error (EOF family or
// ErrCorrupt), never a panic or a bogus success.
func TestTruncatedFrames(t *testing.T) {
	req := &WriteSegsReq{File: "f", Subfile: 1, Lo: 0, Hi: 15, Data: make([]byte, 16)}
	var full bytes.Buffer
	if err := WriteFrameV(&full, AppendWriteSegs(nil, req), MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	stream := full.Bytes()
	for cut := 0; cut < len(stream); cut++ {
		_, err := ReadFrame(bytes.NewReader(stream[:cut]), 0)
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(stream))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: unexpected error class %v", cut, err)
		}
	}
}

// TestCorruptFrames flips each payload byte of a valid frame and
// decodes it: corruption must never panic, and any "successful" decode
// must at least have consumed the whole payload (the codec is
// length-guarded, so most flips surface as ErrCorrupt).
func TestCorruptFrames(t *testing.T) {
	decoders := map[byte]func([]byte) error{
		MsgCreateFile: func(p []byte) error { _, err := DecodeCreateFile(p); return err },
		MsgSetView:    func(p []byte) error { _, err := DecodeSetView(p); return err },
		MsgWriteSegs:  func(p []byte) error { _, err := DecodeWriteSegs(p); return err },
		MsgReadSegs:   func(p []byte) error { _, err := DecodeReadSegs(p); return err },
		MsgStat:       func(p []byte) error { _, err := DecodeStat(p); return err },
		MsgClose:      func(p []byte) error { _, err := DecodeClose(p); return err },
		MsgData:       func(p []byte) error { _, err := DecodeData(p); return err },
		MsgStatResp:   func(p []byte) error { _, err := DecodeStatResp(p); return err },
		MsgError:      func(p []byte) error { _, err := DecodeError(p); return err },
	}
	bodies := [][]byte{
		AppendCreateFile(nil, &CreateFileReq{Name: "data", Phys: []byte{1, 2, 3}, Subfiles: []int{0, 2}}),
		AppendSetView(nil, &SetViewReq{Fingerprint: 99, Proj: []byte{4, 5, 6, 7}}),
		AppendWriteSegs(nil, &WriteSegsReq{File: "data", Subfile: 3, Fingerprint: 9, Lo: 2, Hi: 63, Data: make([]byte, 12)}),
		AppendReadSegs(nil, &ReadSegsReq{File: "data", Subfile: 3, Fingerprint: 9, Lo: 2, Hi: 63, N: 12}),
		AppendStat(nil, &StatReq{File: "data", Subfile: 1}),
		AppendClose(nil, &CloseReq{File: "data"}),
		AppendData(nil, []byte("payload")),
		AppendStatResp(nil, 123456),
		AppendError(nil, ErrCodeIO, "disk on fire"),
	}
	for _, msg := range bodies {
		body := frameBody(frameHdr{sid: 5}, msg)
		msgType, _, err := ParseFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		decode := decoders[msgType]
		for i := 1; i < len(body); i++ {
			for _, delta := range []byte{1, 0x80, 0xFF} {
				mut := append([]byte(nil), body...)
				mut[i] ^= delta
				mt, payload, err := ParseFrame(mut)
				if err != nil {
					continue // header corrupted: rejected up front
				}
				if d, ok := decoders[mt]; ok {
					d(payload) // must not panic; errors are expected
				} else {
					_ = mt
				}
				_ = decode
			}
		}
	}
}

// TestFrameLengthBounds checks the ReadFrame guards on the length
// prefix: undersized, oversized, and the max-frame override.
func TestFrameLengthBounds(t *testing.T) {
	// Oversized length prefix.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(big), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("4GiB frame accepted: %v", err)
	}
	// Undersized: a frame body needs at least version, header and type.
	small := []byte{0, 0, 0, 1, 0xAA}
	if _, err := ReadFrame(bytes.NewReader(small), 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("1-byte frame accepted: %v", err)
	}
	// A tight max-frame rejects bodies that the default allows.
	var buf bytes.Buffer
	if err := WriteFrameV(&buf, AppendData(nil, make([]byte, 1024)), MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame above max accepted: %v", err)
	}
}

func TestParseFrameVersion(t *testing.T) {
	body := frameBody(frameHdr{}, AppendOK(nil))
	if _, _, err := ParseFrame(body); err != nil {
		t.Fatalf("current-version body rejected: %v", err)
	}
	for _, ver := range []byte{0, MaxProtoVersion - 1, MaxProtoVersion + 1} {
		body[0] = ver
		if _, _, err := ParseFrame(body); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("protocol version %d accepted: %v", ver, err)
		}
	}
	if _, _, err := ParseFrame([]byte{MaxProtoVersion}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("1-byte body accepted: %v", err)
	}
}

// TestFrameHeaderRoundTrip checks that the routing header — stream id,
// trace context, returned span records — survives the wire and leaves
// the message untouched behind it.
func TestFrameHeaderRoundTrip(t *testing.T) {
	want := frameHdr{sid: 1 << 40, trace: 0xDEADBEEFCAFE, span: 77, spans: []obs.SpanRecord{
		{TraceID: 0xDEADBEEFCAFE, SpanID: 78, Parent: 77, Name: "server.stat", Node: "ion0", Start: 10, End: 25},
		{TraceID: 0xDEADBEEFCAFE, SpanID: 79, Parent: 78, Name: "lock_wait", Node: "ion0", Start: 11, End: 12, Err: true},
	}}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, MaxProtoVersion, &want, AppendStatResp(nil, 42)); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, msgType, payload, err := parseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.sid != want.sid || got.trace != want.trace || got.span != want.span || len(got.spans) != 2 ||
		got.spans[0] != want.spans[0] || got.spans[1] != want.spans[1] {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	if n, err := DecodeStatResp(payload); msgType != MsgStatResp || err != nil || n != 42 {
		t.Fatalf("message behind the header: type %#x n %d err %v", msgType, n, err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	withTrailer := frameBody(frameHdr{}, append(AppendStat(nil, &StatReq{File: "x", Subfile: 0}), 0xEE))
	_, payload, err := ParseFrame(withTrailer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStat(payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestMsgName(t *testing.T) {
	for _, mt := range []byte{MsgCreateFile, MsgSetView, MsgWriteSegs, MsgReadSegs,
		MsgStat, MsgClose, MsgOK, MsgData, MsgStatResp, MsgError} {
		if name := MsgName(mt); name == "unknown" || strings.ContainsAny(name, " \t") {
			t.Fatalf("MsgName(%#x) = %q", mt, name)
		}
	}
	if MsgName(0x7E) != "unknown" {
		t.Fatalf("MsgName of bogus type = %q", MsgName(0x7E))
	}
}

// FuzzDecode throws arbitrary bytes at the frame parser and every
// request decoder: nothing may panic, and every error must belong to
// the ErrCorrupt family so connection handlers can classify it.
func FuzzDecode(f *testing.F) {
	req := frameHdr{sid: 3, trace: 9, span: 4}
	f.Add(frameBody(req, AppendCreateFile(nil, &CreateFileReq{Name: "d", Phys: []byte{1}, Subfiles: []int{0}})))
	f.Add(frameBody(req, AppendWriteSegs(nil, &WriteSegsReq{File: "d", Hi: 7, Data: make([]byte, 8), Epoch: 2})))
	f.Add(frameBody(req, AppendReadSegs(nil, &ReadSegsReq{File: "d", Hi: 7, N: 8})))
	f.Add(frameBody(frameHdr{sid: 1}, AppendSetView(nil, &SetViewReq{Fingerprint: 1, Proj: []byte{2}})))
	f.Add(frameBody(frameHdr{sid: 1}, AppendError(nil, ErrCodeOverloaded, "x")))
	f.Add(frameBody(frameHdr{}, AppendOK(nil)))
	// The connection preface, and a reply carrying a span section.
	f.Add(frameBody(frameHdr{}, AppendHello(nil, MaxProtoVersion, "gold")))
	f.Add(frameBody(frameHdr{sid: 3, spans: []obs.SpanRecord{
		{TraceID: 9, SpanID: 5, Parent: 4, Name: "server.stat", Node: "ion0", Start: 1, End: 2},
	}}, AppendStatResp(nil, 8)))
	f.Fuzz(func(t *testing.T, body []byte) {
		msgType, payload, err := ParseFrame(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parse error outside the ErrCorrupt family: %v", err)
			}
			return
		}
		switch msgType {
		case MsgHello:
			DecodeHello(payload)
		case MsgCreateFile:
			DecodeCreateFile(payload)
		case MsgSetView:
			DecodeSetView(payload)
		case MsgWriteSegs:
			DecodeWriteSegs(payload)
		case MsgReadSegs:
			DecodeReadSegs(payload)
		case MsgStat:
			DecodeStat(payload)
		case MsgClose:
			DecodeClose(payload)
		case MsgData:
			DecodeData(payload)
		case MsgStatResp:
			DecodeStatResp(payload)
		case MsgError:
			DecodeError(payload)
		}
	})
}
