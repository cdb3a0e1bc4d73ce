package rpc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"parafile/internal/codec"
	"parafile/internal/obs"
)

// wire_test.go checks the frame codec the hard way: seeded-random
// round-trips for every type of the message table, then deliberately
// truncated and corrupted frames of every type, which must come back
// as clean ErrCorrupt-wrapped errors — never a panic, never a silent
// misparse.

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randBytes draws up to max random bytes; none decodes as nil, so
// an empty draw is nil too.
func randBytes(rng *rand.Rand, max int) []byte {
	n := rng.Intn(max + 1)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// frameBody wraps a message in the frame body ReadFrame would hand
// back for it.
func frameBody(h frameHdr, msg []byte) []byte {
	return append(appendFrameHdr(nil, MaxProtoVersion, &h), msg...)
}

// roundTripFrame pushes a message through WriteFrameV/ReadFrame and
// returns the re-parsed payload.
func roundTripFrame(t *testing.T, msg []byte, wantType byte) []byte {
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

func randMetaFile(rng *rand.Rand) *MetaFile {
	n := 1 + rng.Intn(5)
	nodes := make([]string, n)
	assign := make([]int, 1+rng.Intn(6))
	for i := range nodes {
		nodes[i] = randString(rng, 24)
	}
	for i := range assign {
		assign[i] = rng.Intn(n)
	}
	return &MetaFile{
		Name:        randString(rng, 32),
		StripeBytes: rng.Int63n(1 << 20),
		Replication: 1 + rng.Intn(3),
		Epoch:       rng.Uint64() >> 8,
		Length:      rng.Int63(),
		StoreName:   randString(rng, 32),
		Nodes:       nodes,
		Assign:      assign,
	}
}

// roundTripRow drives the seeded round trip of one message type: iters
// random bodies drawn by gen from a source seeded with seed. A
// bodiless type has a nil gen.
type roundTripRow struct {
	seed  int64
	iters int
	gen   func(rng *rand.Rand) codec.Message
}

var roundTripRows = map[byte]roundTripRow{
	MsgCreateFile: {1, 200, func(rng *rand.Rand) codec.Message {
		req := &CreateFileReq{Name: randString(rng, 40), Phys: randBytes(rng, 256), Reopen: rng.Intn(2) == 1, Epoch: rng.Uint64()}
		for j := rng.Intn(8); j > 0; j-- {
			req.Subfiles = append(req.Subfiles, rng.Intn(64))
		}
		return req
	}},
	MsgSetView: {2, 200, func(rng *rand.Rand) codec.Message {
		return &SetViewReq{Fingerprint: rng.Uint64(), Proj: randBytes(rng, 512)}
	}},
	MsgWriteSegs: {3, 200, func(rng *rand.Rand) codec.Message {
		return &WriteSegsReq{File: randString(rng, 30), Subfile: rng.Int63n(64), Fingerprint: rng.Uint64(),
			Lo: rng.Int63n(1 << 30), Hi: rng.Int63n(1 << 30), Data: randBytes(rng, 1024), Epoch: rng.Uint64()}
	}},
	MsgReadSegs: {4, 200, func(rng *rand.Rand) codec.Message {
		return &ReadSegsReq{File: randString(rng, 30), Subfile: rng.Int63n(64), Fingerprint: rng.Uint64(),
			Lo: rng.Int63n(1 << 30), Hi: rng.Int63n(1 << 30), N: rng.Int63n(1 << 20), Epoch: rng.Uint64()}
	}},
	MsgStat: {5, 100, func(rng *rand.Rand) codec.Message {
		return &StatReq{File: randString(rng, 30), Subfile: rng.Int63n(64)}
	}},
	MsgClose: {5, 100, func(rng *rand.Rand) codec.Message {
		return &CloseReq{File: randString(rng, 30), Remove: rng.Intn(2) == 1}
	}},
	MsgPing: {0, 1, nil},
	MsgHello: {15, 100, func(rng *rand.Rand) codec.Message {
		return &hello{Ver: byte(rng.Intn(256)), Tenant: randString(rng, 16)}
	}},
	MsgChecksum: {16, 100, func(rng *rand.Rand) codec.Message {
		return &ChecksumReq{File: randString(rng, 30), Subfile: rng.Int63n(64), Off: rng.Int63(), N: rng.Int63()}
	}},
	MsgEpoch: {9, 100, func(rng *rand.Rand) codec.Message {
		return &EpochReq{File: randString(rng, 24), Epoch: 1 + rng.Uint64()>>8, Fence: rng.Intn(2) == 1}
	}},
	MsgOK: {0, 1, nil},
	MsgData: {6, 100, func(rng *rand.Rand) codec.Message {
		return &dataResp{Data: randBytes(rng, 2048)}
	}},
	MsgStatResp: {6, 100, func(rng *rand.Rand) codec.Message {
		return &statResp{Len: rng.Int63()}
	}},
	MsgChecksumResp: {16, 100, func(rng *rand.Rand) codec.Message {
		return &checksumResp{Sum: rng.Uint32()}
	}},
	MsgError: {6, 100, func(rng *rand.Rand) codec.Message {
		return &RemoteError{Code: uint64(rng.Intn(9)), Msg: randString(rng, 60),
			RetryAfter: time.Duration(rng.Intn(1000)) * time.Millisecond, Leader: randString(rng, 20)}
	}},
	MsgMetaCreate: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaCreateReq{Name: randString(rng, 32), StripeBytes: rng.Int63n(1 << 20), Replication: rng.Intn(4)}
	}},
	MsgMetaOpen: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaNameReq{Name: randString(rng, 40)}
	}},
	MsgMetaList: {0, 1, nil},
	MsgMetaRemove: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaNameReq{Name: randString(rng, 40)}
	}},
	MsgMetaCommit: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaCommitReq{
			Name: randString(rng, 24), OldEpoch: rng.Uint64() >> 8,
			StoreName: randString(rng, 24),
			Nodes:     []string{randString(rng, 16), randString(rng, 16)},
			Assign:    []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)},
			NewEpoch:  rng.Uint64() >> 8,
		}
	}},
	MsgMetaExtend: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaExtendReq{Name: randString(rng, 24), Length: rng.Int63()}
	}},
	MsgMetaNodes: {0, 1, nil},
	MsgMetaNode: {9, 100, func(rng *rand.Rand) codec.Message {
		return &MetaNode{Addr: randString(rng, 24), State: byte(rng.Intn(3))}
	}},
	MsgMetaVote: {11, 200, func(rng *rand.Rand) codec.Message {
		return &MetaVoteReq{Term: rng.Uint64(), Candidate: randString(rng, 40), LastIndex: rng.Uint64(), LastTerm: rng.Uint64()}
	}},
	MsgMetaAppend: {12, 200, func(rng *rand.Rand) codec.Message {
		req := &MetaAppendReq{Term: rng.Uint64(), Leader: randString(rng, 40), PrevIndex: rng.Uint64(), PrevTerm: rng.Uint64()}
		for j := rng.Intn(4); j > 0; j-- {
			req.Entries = append(req.Entries, ReplEntry{Index: rng.Uint64(), Term: rng.Uint64(), Payload: randBytes(rng, 128)})
		}
		return req
	}},
	MsgMetaSnapInstall: {13, 200, func(rng *rand.Rand) codec.Message {
		return &MetaSnapInstallReq{Term: rng.Uint64(), Leader: randString(rng, 40),
			LastIndex: rng.Uint64(), LastTerm: rng.Uint64(), State: randBytes(rng, 512)}
	}},
	MsgMetaStatus: {0, 1, nil},
	MsgMetaFileResp: {8, 200, func(rng *rand.Rand) codec.Message {
		return randMetaFile(rng)
	}},
	MsgMetaListResp: {10, 20, func(rng *rand.Rand) codec.Message {
		r := &MetaListResp{}
		for j := rng.Intn(4); j > 0; j-- {
			r.Files = append(r.Files, randMetaFile(rng))
		}
		return r
	}},
	MsgMetaNodesResp: {10, 20, func(rng *rand.Rand) codec.Message {
		r := &MetaNodesResp{}
		for j := rng.Intn(4); j > 0; j-- {
			r.Nodes = append(r.Nodes, MetaNode{Addr: randString(rng, 24), State: byte(rng.Intn(3))})
		}
		return r
	}},
	MsgMetaVoteResp: {11, 200, func(rng *rand.Rand) codec.Message {
		return &MetaVoteResp{Term: rng.Uint64(), Granted: rng.Intn(2) == 1}
	}},
	MsgMetaAppendResp: {12, 200, func(rng *rand.Rand) codec.Message {
		return &MetaAppendResp{Term: rng.Uint64(), OK: rng.Intn(2) == 1, LastIndex: rng.Uint64()}
	}},
	MsgMetaStatusResp: {14, 200, func(rng *rand.Rand) codec.Message {
		roles := []string{RoleFollower, RoleCandidate, RoleLeader, RoleStandalone}
		return &MetaStatusInfo{Term: rng.Uint64(), Role: roles[rng.Intn(len(roles))],
			Leader: randString(rng, 40), Self: randString(rng, 40), LastIndex: rng.Uint64(), LastTerm: rng.Uint64(),
			LeaseMs: rng.Int63n(1000), Peers: int64(1 + rng.Intn(7))}
	}},
}

// checkRoundTrips runs the seeded round trip of each type: every body
// survives Encode, the frame and Decode unchanged, and every
// truncation of its payload fails to decode.
func checkRoundTrips(t *testing.T, types ...byte) {
	t.Helper()
	for _, typ := range types {
		row, ok := roundTripRows[typ]
		if !ok {
			t.Fatalf("no round-trip row for %s", MsgName(typ))
		}
		rng := rand.New(rand.NewSource(row.seed))
		for i := 0; i < row.iters; i++ {
			var want codec.Message
			if row.gen != nil {
				want = row.gen(rng)
			}
			payload := roundTripFrame(t, Encode(nil, typ, want), typ)
			got := newBody(typ)
			if err := Decode(payload, got); err != nil {
				t.Fatalf("%s iter %d: %v", MsgName(typ), i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s iter %d: decoded %+v, want %+v", MsgName(typ), i, got, want)
			}
			for cut := 0; cut < len(payload); cut++ {
				if err := Decode(payload[:cut], newBody(typ)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s iter %d: truncation at %d/%d: %v", MsgName(typ), i, cut, len(payload), err)
				}
			}
		}
	}
}

// newBody returns a zero body of type t to decode into.
func newBody(t byte) codec.Message {
	if msgs[t].body == nil {
		return nil
	}
	return msgs[t].body()
}

// TestMessageRoundTrip runs the seeded round trip of every type in the
// message table.
func TestMessageRoundTrip(t *testing.T) {
	for typ, spec := range msgs {
		if spec.name != "" {
			t.Run(spec.name, func(t *testing.T) { checkRoundTrips(t, byte(typ)) })
		}
	}
}

// The per-message round-trip tests select rows of the one table.

func TestCreateFileRoundTrip(t *testing.T) { checkRoundTrips(t, MsgCreateFile) }
func TestSetViewRoundTrip(t *testing.T)    { checkRoundTrips(t, MsgSetView) }
func TestWriteSegsRoundTrip(t *testing.T)  { checkRoundTrips(t, MsgWriteSegs) }
func TestReadSegsRoundTrip(t *testing.T)   { checkRoundTrips(t, MsgReadSegs) }
func TestStatCloseRoundTrip(t *testing.T)  { checkRoundTrips(t, MsgStat, MsgClose) }
func TestResponseRoundTrips(t *testing.T) {
	checkRoundTrips(t, MsgOK, MsgData, MsgStatResp, MsgChecksumResp, MsgError)
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

// TestTruncatedFrames feeds every prefix of a valid frame stream of
// every message type to ReadFrame: each must fail with a clean error
// (EOF family or ErrCorrupt), never a panic or a bogus success.
func TestTruncatedFrames(t *testing.T) {
	for _, typ := range goldenOrder {
		var full bytes.Buffer
		if err := WriteFrameV(&full, goldenMessage(typ), MaxProtoVersion); err != nil {
			t.Fatal(err)
		}
		stream := full.Bytes()
		for cut := 0; cut < len(stream); cut++ {
			_, err := ReadFrame(bytes.NewReader(stream[:cut]), 0)
			if err == nil {
				t.Fatalf("%s: truncation at %d/%d accepted", MsgName(typ), cut, len(stream))
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation at %d: unexpected error class %v", MsgName(typ), cut, err)
			}
		}
	}
}

// TestCorruptFrames flips each byte of a valid frame body of every
// message type and decodes it with the table: corruption must never
// panic, and a failed decode must say ErrCorrupt.
func TestCorruptFrames(t *testing.T) {
	for _, typ := range goldenOrder {
		body := frameBody(frameHdr{sid: 5}, goldenMessage(typ))
		for i := 1; i < len(body); i++ {
			for _, delta := range []byte{1, 0x80, 0xFF} {
				mut := append([]byte(nil), body...)
				mut[i] ^= delta
				mt, payload, err := ParseFrame(mut)
				if err != nil || msgs[mt].name == "" {
					continue // header corrupted: rejected up front
				}
				if err := Decode(payload, newBody(mt)); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s byte %d ^%#x: error outside ErrCorrupt: %v", MsgName(typ), i, delta, err)
				}
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
	if err := WriteFrameV(&buf, Encode(nil, MsgData, &dataResp{Data: make([]byte, 1024)}), MaxProtoVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame above max accepted: %v", err)
	}
}

func TestParseFrameVersion(t *testing.T) {
	body := frameBody(frameHdr{}, Encode(nil, MsgOK, nil))
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
	if _, err := writeFrame(&buf, MaxProtoVersion, &want, Encode(nil, MsgStatResp, &statResp{Len: 42})); err != nil {
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
	var r statResp
	if err := Decode(payload, &r); msgType != MsgStatResp || err != nil || r.Len != 42 {
		t.Fatalf("message behind the header: type %#x n %d err %v", msgType, r.Len, err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	for _, typ := range goldenOrder {
		withTrailer := frameBody(frameHdr{}, append(goldenMessage(typ), 0xEE))
		_, payload, err := ParseFrame(withTrailer)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(payload, newBody(typ)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: trailing bytes accepted: %v", MsgName(typ), err)
		}
	}
}

func TestMsgName(t *testing.T) {
	seen := map[string]bool{}
	for _, mt := range goldenOrder {
		name := MsgName(mt)
		if name == "unknown" || strings.ContainsAny(name, " \t") || seen[name] {
			t.Fatalf("MsgName(%#x) = %q", mt, name)
		}
		seen[name] = true
	}
	if MsgName(0x7E) != "unknown" {
		t.Fatalf("MsgName of bogus type = %q", MsgName(0x7E))
	}
}

// FuzzDecode throws arbitrary bytes at the frame parser and decodes
// every message type of the table: nothing may panic, every error must
// belong to the ErrCorrupt family so connection handlers can classify
// it, and a decoded body must decode to itself again once re-encoded.
func FuzzDecode(f *testing.F) {
	for _, typ := range goldenOrder {
		f.Add(frameBody(frameHdr{sid: 3, trace: 9, span: 4}, goldenMessage(typ)))
	}
	f.Add(frameBody(*goldenHdr, goldenMessage(MsgStatResp)))
	f.Fuzz(func(t *testing.T, body []byte) {
		msgType, payload, err := ParseFrame(body)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parse error outside the ErrCorrupt family: %v", err)
			}
			return
		}
		if msgs[msgType].name == "" {
			return
		}
		got := newBody(msgType)
		if err := Decode(payload, got); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: decode error outside the ErrCorrupt family: %v", MsgName(msgType), err)
			}
			return
		}
		again := newBody(msgType)
		if err := Decode(Encode(nil, msgType, got)[1:], again); err != nil {
			t.Fatalf("%s: re-encoded body does not decode: %v", MsgName(msgType), err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%s: re-encoded body decodes to %+v, want %+v", MsgName(msgType), again, got)
		}
	})
}
