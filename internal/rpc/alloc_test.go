package rpc

import (
	"testing"

	"parafile/internal/obs"
)

// alloc_test.go pins the allocations of the codec work every piece
// pays: the frame header, the WriteSegs and ReadSegs heads, the Data
// head and the Error reply, each encoded into a reused buffer and
// decoded from a frame body. A codec change that adds an allocation
// on the data path fails here.

func TestDataPathAllocs(t *testing.T) {
	spans := []obs.SpanRecord{
		{TraceID: 9, SpanID: 5, Parent: 4, Name: "write_segments", Node: "ion0", Start: 1, End: 2},
		{TraceID: 9, SpanID: 6, Parent: 5, Name: "lock_wait", Node: "ion0", Start: 1, End: 2},
	}
	ws := &WriteSegsReq{File: "matrix", Subfile: 3, Fingerprint: 77, Lo: 128, Hi: 1<<20 + 127, Data: make([]byte, 1<<20), Epoch: 9}
	rs := &ReadSegsReq{File: "matrix", Subfile: 3, Fingerprint: 77, Lo: 128, Hi: 1<<20 + 127, N: 1 << 20, Epoch: 9}
	buf := make([]byte, 0, 4096)
	plain := frameBody(frameHdr{sid: 300, trace: 1 << 40, span: 7}, Encode(nil, MsgOK, nil))
	traced := frameBody(frameHdr{sid: 300, trace: 1 << 40, span: 7, spans: spans}, Encode(nil, MsgOK, nil))
	wsMsg := AppendWriteSegs(nil, ws)
	rsMsg := appendReadSegs(nil, rs)
	dataMsg := Encode(nil, MsgData, &dataResp{Data: make([]byte, 1<<20)})
	overload := &RemoteError{Code: ErrCodeOverloaded, Msg: "queue full", RetryAfter: 20e6}
	errMsg := appendError(nil, overload)
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"frame header encode", 0, func() { appendFrameHdr(buf[:0], MaxProtoVersion, &frameHdr{sid: 300, trace: 1 << 40, span: 7}) }},
		{"frame header encode with spans", 0, func() {
			appendFrameHdr(buf[:0], MaxProtoVersion, &frameHdr{sid: 300, trace: 1 << 40, span: 7, spans: spans})
		}},
		{"frame header decode", 0, func() { mustParse(t, plain) }},
		{"frame header decode with spans", 5, func() { mustParse(t, traced) }},
		{"write_segments head encode", 0, func() { appendWriteSegsHead(buf[:0], ws) }},
		{"write_segments decode", 2, func() {
			if _, err := DecodeWriteSegs(wsMsg[1:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"read_segments encode", 0, func() { appendReadSegs(buf[:0], rs) }},
		{"read_segments decode", 2, func() {
			if _, err := decodeReadSegs(rsMsg[1:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"data head encode", 0, func() { appendDataHead(buf[:0], 1<<20) }},
		{"data decode", 0, func() {
			if _, err := decodeData(dataMsg[1:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"error encode", 0, func() {
			appendError(buf[:0], &RemoteError{Code: ErrCodeOverloaded, Msg: "queue full", RetryAfter: 20e6})
		}},
		{"error decode", 2, func() {
			if _, err := decodeError(errMsg[1:]); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %.1f allocations, want %.0f", c.name, got, c.want)
		}
	}
}

func mustParse(t *testing.T, body []byte) {
	if _, _, _, err := parseFrame(body); err != nil {
		t.Fatal(err)
	}
}
