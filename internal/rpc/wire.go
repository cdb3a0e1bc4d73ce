// Package rpc is the real-network transport of the Clusterfile
// reproduction: a length-prefixed binary wire protocol carrying the
// §8.1 storage operations — view-driven scatter (WriteSegments) and
// gather (ReadSegments) plus CreateFile/SetView/Stat/Close — between
// compute-node clients and parafiled I/O-node daemons over TCP.
//
// Projections are content-addressed: SetView registers an encoded
// redist projection under its fingerprint once, and every subsequent
// WriteSegments/ReadSegments names it by fingerprint only, mirroring
// the paper's amortization argument (PROJ_S travels at view-set time,
// not per access). The encoding reuses the internal/codec varint
// primitives, so the structures on the wire are the same ones the
// in-process path computes.
//
// There is one framing and one connection path. A frame is a 4-byte
// length, a body — version byte, routing header (stream id, trace
// context, returned span records), message — and a CRC32C trailer. A
// message is a type byte plus payload, which is what the Append*
// encoders build and the Decode* functions take apart. The client
// (client.go, mux.go) multiplexes every call to a node over one
// connection with write and read deadlines and bounded
// exponential-backoff retry; every request is idempotent (writes place
// the same bytes at the same offsets), which is what makes blind retry
// after a connection drop safe. The server side (conn.go) is one
// demultiplexing loop shared by the data daemons (server.go, stream.go)
// and the metadata service. transport.go adapts a set of daemons to
// clusterfile.Transport.
package rpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/qos"
)

// MaxProtoVersion is the one protocol generation this tree speaks. It
// leads every frame body; a frame carrying any other value is
// ErrCorrupt, and a connection whose preface names another is refused
// with a typed error — peers never negotiate a version down.
const MaxProtoVersion = 4

// DefaultMaxFrame bounds a frame body (header + message). Large
// enough for any demo/benchmark payload, small enough to stop a
// corrupt length prefix from allocating the machine away.
const DefaultMaxFrame = 64 << 20

// frameSlack is the room a chunk frame needs beyond its data — header,
// message type, chunk flags — with margin. Both sides clamp chunk
// sizes to MaxFrame-frameSlack.
const frameSlack = 64

// Request message types.
const (
	MsgCreateFile byte = 0x01
	MsgSetView    byte = 0x02
	MsgWriteSegs  byte = 0x03
	MsgReadSegs   byte = 0x04
	MsgStat       byte = 0x05
	MsgClose      byte = 0x06
	// MsgPing is the lightweight liveness probe the circuit breaker
	// uses in half-open state; it touches no file state.
	MsgPing byte = 0x07
	// MsgHello is the connection preface, the first frame a client
	// sends: [version byte][tenant string]. The server answers MsgOK, or
	// a bad-request MsgError before closing when the version is not its
	// own. The tenant names the connection's fair-share class for
	// admission control (empty = default class).
	MsgHello byte = 0x08
	// MsgChecksum asks for the CRC32C of a subfile byte range; bytes
	// beyond the current length count as zeroes. Scrub compares
	// replicas with it without shipping the data.
	MsgChecksum byte = 0x09
	// MsgWriteStream opens a chunked scatter: same
	// addressing as MsgWriteSegs but the data follows as MsgWriteChunk
	// frames on the same stream id, so the server scatters while later
	// chunks are still in flight. The server answers once, after the
	// last chunk.
	MsgWriteStream byte = 0x0A
	// MsgWriteChunk carries one slice of a write stream's data:
	// [flags byte][bytes]. flagChunkLast marks the final slice,
	// flagChunkAbort cancels the stream without a server reply.
	MsgWriteChunk byte = 0x0B
	// MsgReadStream opens a chunked gather: same
	// addressing as MsgReadSegs plus the chunk size the client wants;
	// the server answers with MsgDataChunk frames.
	MsgReadStream byte = 0x0C
	// MsgSpans drains the span records a streamed operation left
	// behind: [uvarint trace id] → MsgSpansResp. A stream's reply is
	// built before its server span closes, so the records cannot ride
	// the reply frame like a unary call's; the client collects them
	// with one drain call after the stream settles.
	MsgSpans byte = 0x0E
	// MsgEpoch is the placement-epoch admin request a rebalance driver
	// sends to a data daemon: it stamps (ratchets) the placement epoch
	// of every store of a file and raises or clears the write fence.
	// Idempotent; a daemon that hosts no store of the file answers OK.
	MsgEpoch byte = 0x0F
)

// Metadata-service request types (handled by parafilemd, not by the
// data daemons; they share the framing, connection loop and error
// encoding with the storage protocol).
const (
	MsgMetaCreate byte = 0x20
	MsgMetaOpen   byte = 0x21
	MsgMetaList   byte = 0x22
	MsgMetaRemove byte = 0x23
	// MsgMetaCommit is the compare-and-swap placement flip: it names
	// the epoch the caller rebalanced from and fails with
	// ErrCodeStalePlacement if the file has moved on since.
	MsgMetaCommit byte = 0x24
	// MsgMetaExtend ratchets a file's logical length upward after a
	// write; the recorded length sizes later rebalances.
	MsgMetaExtend byte = 0x25
	MsgMetaNodes  byte = 0x26
	// MsgMetaNode registers a node or updates its membership state.
	MsgMetaNode byte = 0x27
	// MsgMetaVote is the replication group's leader-election ballot: a
	// candidate names its term and log tail, a peer grants or denies.
	MsgMetaVote byte = 0x28
	// MsgMetaAppend ships namespace log records from the leader to a
	// follower (and doubles as the lease heartbeat when it carries no
	// records). The follower checks the leader's previous-entry tail
	// against its own and nacks on divergence.
	MsgMetaAppend byte = 0x29
	// MsgMetaSnapInstall transfers a full serialized namespace state to
	// a follower whose log diverged or fell behind; the follower installs
	// it atomically (temp + fsync + rename) and truncates its log.
	MsgMetaSnapInstall byte = 0x2A
	// MsgMetaStatus asks a metadata node for its replication status:
	// term, role, known leader, log tail, lease remainder.
	MsgMetaStatus byte = 0x2B
)

// Metadata-service response types.
const (
	MsgMetaFileResp  byte = 0x30
	MsgMetaListResp  byte = 0x31
	MsgMetaNodesResp byte = 0x32
	// MsgMetaVoteResp answers MsgMetaVote with the voter's term and the
	// grant/deny verdict.
	MsgMetaVoteResp byte = 0x33
	// MsgMetaAppendResp acks (or nacks, with the follower's tail) a
	// MsgMetaAppend batch.
	MsgMetaAppendResp byte = 0x34
	// MsgMetaStatusResp answers MsgMetaStatus.
	MsgMetaStatusResp byte = 0x35
)

// Response message types.
const (
	MsgOK           byte = 0x10
	MsgData         byte = 0x11
	MsgStatResp     byte = 0x12
	MsgChecksumResp byte = 0x14
	// MsgDataChunk carries one slice of a read stream's gathered bytes:
	// [flags byte][bytes]. flagChunkLast marks the final slice.
	MsgDataChunk byte = 0x15
	// MsgSpansResp answers MsgSpans: [span records].
	MsgSpansResp byte = 0x17
	MsgError     byte = 0x1F
)

// Chunk frame flags (first payload byte of MsgWriteChunk/MsgDataChunk).
const (
	// flagChunkLast marks the final chunk of a stream.
	flagChunkLast byte = 1 << 0
	// flagChunkAbort cancels the stream: the sender gave up mid-transfer
	// (context cancellation, local error) and the receiver must tear the
	// stream down without waiting for more chunks.
	flagChunkAbort byte = 1 << 1
)

// MsgName returns the metrics label of a message type.
func MsgName(t byte) string {
	switch t {
	case MsgCreateFile:
		return "create_file"
	case MsgSetView:
		return "set_view"
	case MsgWriteSegs:
		return "write_segments"
	case MsgReadSegs:
		return "read_segments"
	case MsgStat:
		return "stat"
	case MsgClose:
		return "close"
	case MsgPing:
		return "ping"
	case MsgHello:
		return "hello"
	case MsgChecksum:
		return "checksum"
	case MsgWriteStream:
		return "write_stream"
	case MsgWriteChunk:
		return "write_chunk"
	case MsgReadStream:
		return "read_stream"
	case MsgDataChunk:
		return "data_chunk"
	case MsgSpans:
		return "spans"
	case MsgEpoch:
		return "epoch"
	case MsgMetaCreate:
		return "meta_create"
	case MsgMetaOpen:
		return "meta_open"
	case MsgMetaList:
		return "meta_list"
	case MsgMetaRemove:
		return "meta_remove"
	case MsgMetaCommit:
		return "meta_commit"
	case MsgMetaExtend:
		return "meta_extend"
	case MsgMetaNodes:
		return "meta_nodes"
	case MsgMetaNode:
		return "meta_node"
	case MsgMetaVote:
		return "meta_vote"
	case MsgMetaAppend:
		return "meta_append"
	case MsgMetaSnapInstall:
		return "meta_snap_install"
	case MsgMetaStatus:
		return "meta_status"
	case MsgMetaVoteResp:
		return "meta_vote_resp"
	case MsgMetaAppendResp:
		return "meta_append_resp"
	case MsgMetaStatusResp:
		return "meta_status_resp"
	case MsgMetaFileResp:
		return "meta_file_resp"
	case MsgMetaListResp:
		return "meta_list_resp"
	case MsgMetaNodesResp:
		return "meta_nodes_resp"
	case MsgSpansResp:
		return "spans_resp"
	case MsgOK:
		return "ok"
	case MsgData:
		return "data"
	case MsgStatResp:
		return "stat_resp"
	case MsgChecksumResp:
		return "checksum_resp"
	case MsgError:
		return "error"
	}
	return "unknown"
}

// Remote error codes carried by MsgError.
const (
	ErrCodeBadRequest        uint64 = 1
	ErrCodeUnknownFile       uint64 = 2
	ErrCodeUnknownProjection uint64 = 3
	ErrCodeIO                uint64 = 4
	ErrCodeShuttingDown      uint64 = 5
	// ErrCodeStalePlacement: the request named a placement epoch the
	// store has moved past (or the store is fenced for a rebalance).
	// The caller should refetch the placement map from the metadata
	// service and retry against the new epoch.
	ErrCodeStalePlacement uint64 = 6
	// ErrCodeOverloaded: the daemon's admission controller refused the
	// request (quota, queue overflow, or shed under pressure). The
	// request was never executed, so any request type is safe to retry
	// — after the RetryAfter hint carried beside the code. Overload is
	// an answer, not a transport failure: it must never advance the
	// circuit breaker.
	ErrCodeOverloaded uint64 = 7
	// ErrCodeNotLeader: the metadata node answering is not the group's
	// leader (or its lease lapsed mid-election). The request was not
	// executed; the caller should redirect to RemoteError.Leader when
	// the hint is present, otherwise probe the other endpoints, with
	// jittered retry through the election window.
	ErrCodeNotLeader uint64 = 8
)

// ErrStalePlacement is the sentinel callers match with errors.Is to
// detect an ErrCodeStalePlacement RemoteError anywhere in a wrapped
// chain (including inside a clusterfile.PartialError).
var ErrStalePlacement = fmt.Errorf("rpc: stale placement epoch")

// ErrUnknownFile is the sentinel for an ErrCodeUnknownFile
// RemoteError — the named file does not exist on the answering
// service (metadata namespace miss, or a store the daemon never saw).
var ErrUnknownFile = fmt.Errorf("rpc: unknown file")

// ErrNotLeader is the sentinel for an ErrCodeNotLeader RemoteError —
// the metadata node is not the leaseholder. Match with errors.As on
// *RemoteError to read the Leader redirect hint.
var ErrNotLeader = fmt.Errorf("rpc: not the metadata leader")

// RemoteError is a server-reported failure: the request was delivered
// and answered, so the client does not retry it at the transport
// layer. The one exception is ErrCodeOverloaded — backpressure, which
// the client retries after RetryAfter without charging the breaker.
type RemoteError struct {
	Code uint64
	Msg  string
	// RetryAfter is the server's backoff hint on ErrCodeOverloaded
	// responses (zero otherwise).
	RetryAfter time.Duration
	// Leader is the redirect hint on ErrCodeNotLeader responses: the
	// address of the node the answering follower believes holds the
	// lease (empty when unknown, e.g. mid-election).
	Leader string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error %d: %s", e.Code, e.Msg)
}

// Is lets errors.Is match the code sentinels through any wrapping
// (PartialError outcomes, fmt %w chains).
func (e *RemoteError) Is(target error) bool {
	switch target {
	case ErrStalePlacement:
		return e.Code == ErrCodeStalePlacement
	case ErrUnknownFile:
		return e.Code == ErrCodeUnknownFile
	case qos.ErrOverloaded:
		return e.Code == ErrCodeOverloaded
	case ErrNotLeader:
		return e.Code == ErrCodeNotLeader
	}
	return false
}

// ErrCorrupt wraps every wire-decoding failure.
var ErrCorrupt = fmt.Errorf("rpc: corrupt frame")

// ErrCorruptFrame marks a frame whose CRC32C trailer did not match
// its body: the frame was damaged in flight, not malformed by a peer.
// The client treats it like a connection-level failure — drop the
// connection and retry the idempotent request — instead of surfacing a
// decode error.
var ErrCorruptFrame = fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)

// frameCastagnoli is the CRC32C table of the frame trailer.
var frameCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameChecksum is the CRC32C a frame's trailer carries for body.
func FrameChecksum(body []byte) uint32 {
	return crc32.Checksum(body, frameCastagnoli)
}

// Fingerprint content-addresses an encoded projection (FNV-1a 64).
// Zero is reserved to mean "no projection / contiguous", so a real
// hash of zero is nudged to one.
func Fingerprint(encoded []byte) uint64 {
	h := fnv.New64a()
	h.Write(encoded)
	fp := h.Sum64()
	if fp == 0 {
		fp = 1
	}
	return fp
}

// frameBufPool recycles frame encode/decode buffers across requests on
// both sides of the wire.
var frameBufPool sync.Pool

// maxPooledFrame caps frame-pool retention: buffers above this size are
// dropped on release instead of returned to the pool, so one oversized
// frame cannot pin tens of megabytes for the life of the process.
// Default-sized stream chunks sit well below the cap, which is the
// point — the steady-state pool holds chunk-sized buffers only.
const maxPooledFrame = 8 << 20

// framePoolDiscards counts buffers dropped by the retention cap.
var framePoolDiscards atomic.Int64

// FramePoolDiscards reports how many frame buffers were discarded
// rather than pooled because they exceeded the retention cap.
func FramePoolDiscards() int64 { return framePoolDiscards.Load() }

// getFrameBuf returns a zero-length buffer with at least n capacity.
func getFrameBuf(n int) []byte {
	if v := frameBufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

// putFrameBuf returns a buffer to the pool; the caller must not retain
// the slice afterwards. Buffers above maxPooledFrame are dropped (and
// counted) instead of pooled.
func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if cap(b) > maxPooledFrame {
		framePoolDiscards.Add(1)
		return
	}
	b = b[:0]
	frameBufPool.Put(&b)
}

// frameHdr is the routing header every frame body carries between the
// version byte and the message.
type frameHdr struct {
	// sid pairs a reply with its request and ties a transfer's chunks
	// together: every frame of one call carries the id the client drew
	// for it. The connection preface travels on stream 0.
	sid uint64
	// trace and span are the caller's trace context on a request (the
	// server's spans become children of span); zero trace = untraced.
	trace, span uint64
	// spans are the completed server-side span records riding back on
	// the reply to a traced unary request.
	spans []obs.SpanRecord
}

// minFrame is the smallest well-formed frame body: version, three zero
// header uvarints, an empty span section and the message type.
const minFrame = 6

func appendFrameHdr(buf []byte, ver byte, h *frameHdr) []byte {
	buf = append(buf, ver)
	buf = codec.AppendUvarint(buf, h.sid)
	buf = codec.AppendUvarint(buf, h.trace)
	buf = codec.AppendUvarint(buf, h.span)
	return AppendSpanRecords(buf, h.spans)
}

// writeFrame writes one frame as a single vectored write (writev on a
// *net.TCPConn via net.Buffers, sequential writes elsewhere): the
// 4-byte big-endian body length, the body — version byte, header,
// then the message, which is the concatenation of parts — and the
// CRC32C of the body. The checksum is computed incrementally across
// parts, so a large data part is never copied into a frame buffer just
// to be framed. It returns the bytes put on the wire.
func writeFrame(w io.Writer, ver byte, h *frameHdr, parts ...[]byte) (int, error) {
	// One allocation holds the length prefix, an untraced header and
	// the trailer; span records make the header outgrow (and leave) it.
	var scratch [44]byte
	head := appendFrameHdr(scratch[:4:40], ver, h)
	n := len(head) - 4
	crc := crc32.Update(0, frameCastagnoli, head[4:])
	bufs := make(net.Buffers, 0, len(parts)+2)
	bufs = append(bufs, head)
	for _, p := range parts {
		if len(p) > 0 {
			n += len(p)
			crc = crc32.Update(crc, frameCastagnoli, p)
			bufs = append(bufs, p)
		}
	}
	binary.BigEndian.PutUint32(head[:4], uint32(n))
	sum := scratch[40:]
	binary.BigEndian.PutUint32(sum, crc)
	bufs = append(bufs, sum)
	_, err := bufs.WriteTo(w)
	return n + 8, err
}

// WriteFrameV writes msg (a type byte plus payload, as the Append*
// encoders build it) as one untraced frame on stream 0, stamped with
// protocol version ver.
func WriteFrameV(w io.Writer, msg []byte, ver byte) error {
	_, err := writeFrame(w, ver, &frameHdr{}, msg)
	return err
}

// ReadFrame reads one frame body into a pooled buffer and verifies its
// CRC32C trailer (a mismatch is ErrCorruptFrame). Callers pass the
// body to ReleaseFrame when done with it.
func ReadFrame(r io.Reader, maxFrame int64) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if n < minFrame || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d outside [%d,%d]", ErrCorrupt, n, minFrame, maxFrame)
	}
	body := getFrameBuf(int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		putFrameBuf(body)
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		putFrameBuf(body)
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[:]) != FrameChecksum(body) {
		putFrameBuf(body)
		return nil, ErrCorruptFrame
	}
	return body, nil
}

// ReleaseFrame returns a frame body obtained from ReadFrame to the
// buffer pool.
func ReleaseFrame(body []byte) { putFrameBuf(body) }

// parseFrame splits a frame body into its header, message type and
// payload, checking the protocol version. The views alias body.
func parseFrame(body []byte) (h frameHdr, msgType byte, payload []byte, err error) {
	if len(body) < minFrame {
		return h, 0, nil, fmt.Errorf("%w: %d-byte body", ErrCorrupt, len(body))
	}
	if body[0] != MaxProtoVersion {
		return h, 0, nil, fmt.Errorf("%w: protocol version %d, want %d", ErrCorrupt, body[0], MaxProtoVersion)
	}
	rest := body[1:]
	if h.sid, rest, err = readUvarint(rest); err != nil {
		return h, 0, nil, err
	}
	if h.trace, rest, err = readUvarint(rest); err != nil {
		return h, 0, nil, err
	}
	if h.span, rest, err = readUvarint(rest); err != nil {
		return h, 0, nil, err
	}
	if h.spans, rest, err = ReadSpanRecords(rest); err != nil {
		return h, 0, nil, err
	}
	if len(rest) < 1 {
		return h, 0, nil, fmt.Errorf("%w: frame without a message", ErrCorrupt)
	}
	return h, rest[0], rest[1:], nil
}

// ParseFrame splits a frame body into message type and payload,
// checking the protocol version and skipping the routing header.
func ParseFrame(body []byte) (msgType byte, payload []byte, err error) {
	_, msgType, payload, err = parseFrame(body)
	return msgType, payload, err
}

// beginMsg starts a message of the given type in buf.
func beginMsg(buf []byte, msgType byte) []byte {
	return append(buf, msgType)
}

func appendString(buf []byte, s string) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readString(buf []byte) (string, []byte, error) {
	b, rest, err := readBytes(buf)
	return string(b), rest, err
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	n, rest, err := codec.ReadUvarint(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: %d-byte field overruns %d-byte buffer", ErrCorrupt, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, rest, err := codec.ReadUvarint(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, rest, nil
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, rest, err := codec.ReadVarint(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, rest, nil
}

func wantEmpty(buf []byte) error {
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	return nil
}

// CreateFileReq registers a file on an I/O node and opens the stores
// of the subfiles that node hosts.
type CreateFileReq struct {
	Name     string
	Phys     []byte // codec.EncodeFile of the physical partition
	Subfiles []int  // subfile indices hosted by the receiving node
	Reopen   bool   // open existing subfiles without truncation
	// Epoch stamps the opened stores with a placement epoch; zero
	// leaves them unversioned.
	Epoch uint64
}

// AppendCreateFile encodes req as a message.
func AppendCreateFile(buf []byte, req *CreateFileReq) []byte {
	buf = beginMsg(buf, MsgCreateFile)
	buf = appendString(buf, req.Name)
	buf = appendBytes(buf, req.Phys)
	buf = codec.AppendUvarint(buf, uint64(len(req.Subfiles)))
	for _, s := range req.Subfiles {
		buf = codec.AppendUvarint(buf, uint64(s))
	}
	if req.Reopen {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return codec.AppendUvarint(buf, req.Epoch)
}

// DecodeCreateFile decodes a MsgCreateFile payload.
func DecodeCreateFile(payload []byte) (*CreateFileReq, error) {
	req := &CreateFileReq{}
	var err error
	if req.Name, payload, err = readString(payload); err != nil {
		return nil, err
	}
	var phys []byte
	if phys, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	req.Phys = append([]byte(nil), phys...)
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: implausible subfile count %d", ErrCorrupt, n)
	}
	req.Subfiles = make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		var s uint64
		if s, payload, err = readUvarint(payload); err != nil {
			return nil, err
		}
		req.Subfiles = append(req.Subfiles, int(s))
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: missing reopen flag", ErrCorrupt)
	}
	req.Reopen = payload[0] != 0
	if req.Epoch, payload, err = readUvarint(payload[1:]); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// SetViewReq registers an encoded projection under its fingerprint.
// Projections are content-addressed and file-independent, so one
// registration serves every file and subfile that uses the shape.
type SetViewReq struct {
	Fingerprint uint64
	Proj        []byte // redist.EncodeProjection
}

// AppendSetView encodes req as a message.
func AppendSetView(buf []byte, req *SetViewReq) []byte {
	buf = beginMsg(buf, MsgSetView)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = appendBytes(buf, req.Proj)
	return buf
}

// DecodeSetView decodes a MsgSetView payload.
func DecodeSetView(payload []byte) (*SetViewReq, error) {
	req := &SetViewReq{}
	var err error
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	var proj []byte
	if proj, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	req.Proj = append([]byte(nil), proj...)
	return req, wantEmpty(payload)
}

// WriteSegsReq is the scatter request. The server grows the subfile to
// Hi+1 bytes, then: with a zero fingerprint writes Data contiguously
// at Lo; otherwise scatters Data into the regions the registered
// projection selects within [Lo, Hi]. Empty Data makes it a pure
// EnsureLen.
type WriteSegsReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	Data        []byte
	// Epoch is the placement epoch the client believes current; the
	// server rejects a mismatch with ErrCodeStalePlacement. Zero is an
	// unstamped request and skips the check.
	Epoch uint64
}

// appendWriteSegsHead encodes req up to, and not including, the bytes
// of Data, which end the message: the client sends them as their own
// part of the vectored frame write instead of copying them here.
func appendWriteSegsHead(buf []byte, req *WriteSegsReq) []byte {
	buf = beginMsg(buf, MsgWriteSegs)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendUvarint(buf, req.Epoch)
	return codec.AppendUvarint(buf, uint64(len(req.Data)))
}

// AppendWriteSegs encodes req as a message.
func AppendWriteSegs(buf []byte, req *WriteSegsReq) []byte {
	return append(appendWriteSegsHead(buf, req), req.Data...)
}

// DecodeWriteSegs decodes a MsgWriteSegs payload. Data aliases the
// frame buffer; the server copies it into storage before releasing the
// frame.
func DecodeWriteSegs(payload []byte) (*WriteSegsReq, error) {
	req := &WriteSegsReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Data, payload, err = readBytes(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// ReadSegsReq is the gather request: with a zero fingerprint the
// server reads N contiguous bytes at Lo; otherwise it gathers the
// regions the registered projection selects within [Lo, Hi] (N bytes
// in total, validated server-side).
type ReadSegsReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	N           int64
	// Epoch as on WriteSegsReq.
	Epoch uint64
}

// AppendReadSegs encodes req as a message.
func AppendReadSegs(buf []byte, req *ReadSegsReq) []byte {
	buf = beginMsg(buf, MsgReadSegs)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.N)
	return codec.AppendUvarint(buf, req.Epoch)
}

// DecodeReadSegs decodes a MsgReadSegs payload.
func DecodeReadSegs(payload []byte) (*ReadSegsReq, error) {
	req := &ReadSegsReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// StatReq asks for a subfile's current length.
type StatReq struct {
	File    string
	Subfile int64
}

// AppendStat encodes req as a message.
func AppendStat(buf []byte, req *StatReq) []byte {
	buf = beginMsg(buf, MsgStat)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	return buf
}

// DecodeStat decodes a MsgStat payload.
func DecodeStat(payload []byte) (*StatReq, error) {
	req := &StatReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// CloseReq syncs and closes every store of the file on the receiving
// node. Closing an unknown file succeeds (idempotent, retry-safe).
// With Remove set, the node also deletes the stores' backing data —
// the rebalance driver's garbage collection of superseded name@epoch
// stores.
type CloseReq struct {
	File   string
	Remove bool
}

// AppendClose encodes req as a message.
func AppendClose(buf []byte, req *CloseReq) []byte {
	buf = beginMsg(buf, MsgClose)
	buf = appendString(buf, req.File)
	if req.Remove {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeClose decodes a MsgClose payload.
func DecodeClose(payload []byte) (*CloseReq, error) {
	req := &CloseReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: missing remove flag", ErrCorrupt)
	}
	req.Remove = payload[0] != 0
	return req, wantEmpty(payload[1:])
}

// AppendPing encodes the empty liveness probe.
func AppendPing(buf []byte) []byte { return beginMsg(buf, MsgPing) }

// AppendOK encodes the empty success response.
func AppendOK(buf []byte) []byte { return beginMsg(buf, MsgOK) }

// appendDataHead begins a payload-carrying success response of n data
// bytes, which the caller appends (or gathers in place) behind it.
func appendDataHead(buf []byte, n int) []byte {
	buf = beginMsg(buf, MsgData)
	return codec.AppendUvarint(buf, uint64(n))
}

// AppendData encodes a payload-carrying success response.
func AppendData(buf, data []byte) []byte {
	return append(appendDataHead(buf, len(data)), data...)
}

// DecodeData decodes a MsgData payload. The returned bytes alias the
// frame buffer.
func DecodeData(payload []byte) ([]byte, error) {
	b, payload, err := readBytes(payload)
	if err != nil {
		return nil, err
	}
	return b, wantEmpty(payload)
}

// AppendStatResp encodes a Stat response.
func AppendStatResp(buf []byte, length int64) []byte {
	buf = beginMsg(buf, MsgStatResp)
	return codec.AppendVarint(buf, length)
}

// DecodeStatResp decodes a MsgStatResp payload.
func DecodeStatResp(payload []byte) (int64, error) {
	n, payload, err := readVarint(payload)
	if err != nil {
		return 0, err
	}
	return n, wantEmpty(payload)
}

// AppendHello encodes the connection preface: the protocol version
// the client speaks and its fair-share tenant (empty = default class).
func AppendHello(buf []byte, ver byte, tenant string) []byte {
	buf = beginMsg(buf, MsgHello)
	buf = append(buf, ver)
	return appendString(buf, tenant)
}

// DecodeHello decodes a MsgHello payload.
func DecodeHello(payload []byte) (ver byte, tenant string, err error) {
	if len(payload) < 1 {
		return 0, "", fmt.Errorf("%w: hello without version byte", ErrCorrupt)
	}
	ver = payload[0]
	if tenant, payload, err = readString(payload[1:]); err != nil {
		return 0, "", err
	}
	return ver, tenant, wantEmpty(payload)
}

// ChecksumReq asks for the CRC32C of subfile bytes [Off, Off+N); bytes
// beyond the subfile's current length count as zeroes.
type ChecksumReq struct {
	File    string
	Subfile int64
	Off, N  int64
}

// AppendChecksum encodes req as a message.
func AppendChecksum(buf []byte, req *ChecksumReq) []byte {
	buf = beginMsg(buf, MsgChecksum)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendVarint(buf, req.Off)
	buf = codec.AppendVarint(buf, req.N)
	return buf
}

// DecodeChecksum decodes a MsgChecksum payload.
func DecodeChecksum(payload []byte) (*ChecksumReq, error) {
	req := &ChecksumReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Off, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// AppendChecksumResp encodes a Checksum response.
func AppendChecksumResp(buf []byte, sum uint32) []byte {
	buf = beginMsg(buf, MsgChecksumResp)
	return codec.AppendUvarint(buf, uint64(sum))
}

// DecodeChecksumResp decodes a MsgChecksumResp payload.
func DecodeChecksumResp(payload []byte) (uint32, error) {
	v, payload, err := readUvarint(payload)
	if err != nil {
		return 0, err
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("%w: checksum %d overflows uint32", ErrCorrupt, v)
	}
	return uint32(v), wantEmpty(payload)
}

// AppendError encodes an error response without hints.
func AppendError(buf []byte, code uint64, msg string) []byte {
	return AppendErrorLeader(buf, code, msg, 0, "")
}

// AppendErrorLeader encodes an error response with a retry-after hint
// (uvarint milliseconds; sub-millisecond hints round up to 1ms so the
// hint survives the wire) and a leader redirect hint.
func AppendErrorLeader(buf []byte, code uint64, msg string, retryAfter time.Duration, leader string) []byte {
	buf = beginMsg(buf, MsgError)
	buf = codec.AppendUvarint(buf, code)
	buf = appendString(buf, msg)
	ms := uint64(retryAfter.Milliseconds())
	if ms == 0 && retryAfter > 0 {
		ms = 1
	}
	buf = codec.AppendUvarint(buf, ms)
	return appendString(buf, leader)
}

// DecodeError decodes a MsgError payload.
func DecodeError(payload []byte) (*RemoteError, error) {
	e := &RemoteError{}
	var err error
	if e.Code, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if e.Msg, payload, err = readString(payload); err != nil {
		return nil, err
	}
	var ms uint64
	if ms, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	e.RetryAfter = time.Duration(ms) * time.Millisecond
	if e.Leader, payload, err = readString(payload); err != nil {
		return nil, err
	}
	return e, wantEmpty(payload)
}

// --- chunked transfers ---

// A chunk message (MsgWriteChunk or MsgDataChunk) is [type][flags]
// followed by the chunk's data, which travels as its own part of the
// vectored frame write and is never copied into a message buffer.

// splitChunk splits a chunk payload into its flags byte and data.
func splitChunk(payload []byte) (flags byte, data []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("%w: chunk without flags byte", ErrCorrupt)
	}
	return payload[0], payload[1:], nil
}

// WriteStreamReq opens a chunked scatter: the same addressing as
// WriteSegsReq, with the data instead arriving as MsgWriteChunk frames
// totalling Total bytes.
type WriteStreamReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	Total       int64
	// Epoch as on WriteSegsReq.
	Epoch uint64
}

// AppendWriteStream encodes req as a message.
func AppendWriteStream(buf []byte, req *WriteStreamReq) []byte {
	buf = beginMsg(buf, MsgWriteStream)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.Total)
	return codec.AppendUvarint(buf, req.Epoch)
}

// DecodeWriteStream decodes a MsgWriteStream payload.
func DecodeWriteStream(payload []byte) (*WriteStreamReq, error) {
	req := &WriteStreamReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Total, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// ReadStreamReq opens a chunked gather: the same addressing as
// ReadSegsReq plus the chunk size the client wants the N gathered
// bytes sliced into.
type ReadStreamReq struct {
	File        string
	Subfile     int64
	Fingerprint uint64
	Lo, Hi      int64
	N           int64
	ChunkSize   int64
	// Epoch as on WriteSegsReq.
	Epoch uint64
}

// AppendReadStream encodes req as a message.
func AppendReadStream(buf []byte, req *ReadStreamReq) []byte {
	buf = beginMsg(buf, MsgReadStream)
	buf = appendString(buf, req.File)
	buf = codec.AppendVarint(buf, req.Subfile)
	buf = codec.AppendUvarint(buf, req.Fingerprint)
	buf = codec.AppendVarint(buf, req.Lo)
	buf = codec.AppendVarint(buf, req.Hi)
	buf = codec.AppendVarint(buf, req.N)
	buf = codec.AppendVarint(buf, req.ChunkSize)
	return codec.AppendUvarint(buf, req.Epoch)
}

// DecodeReadStream decodes a MsgReadStream payload.
func DecodeReadStream(payload []byte) (*ReadStreamReq, error) {
	req := &ReadStreamReq{}
	var err error
	if req.File, payload, err = readString(payload); err != nil {
		return nil, err
	}
	if req.Subfile, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Fingerprint, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	if req.Lo, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Hi, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.N, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.ChunkSize, payload, err = readVarint(payload); err != nil {
		return nil, err
	}
	if req.Epoch, payload, err = readUvarint(payload); err != nil {
		return nil, err
	}
	return req, wantEmpty(payload)
}

// --- tracing: span records (frame header section and drains) ---

// maxSpanRecords bounds a decoded record batch: no legitimate op tree
// is deeper or wider than this, and the cap stops a corrupt count
// from allocating the machine away.
const maxSpanRecords = 1 << 16

func appendSpanRecord(buf []byte, r *obs.SpanRecord) []byte {
	buf = codec.AppendUvarint(buf, r.TraceID)
	buf = codec.AppendUvarint(buf, r.SpanID)
	buf = codec.AppendUvarint(buf, r.Parent)
	buf = appendString(buf, r.Name)
	buf = appendString(buf, r.Node)
	buf = codec.AppendVarint(buf, r.Start)
	buf = codec.AppendVarint(buf, r.End)
	var e byte
	if r.Err {
		e = 1
	}
	return append(buf, e)
}

func readSpanRecord(payload []byte) (obs.SpanRecord, []byte, error) {
	var r obs.SpanRecord
	var err error
	if r.TraceID, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.SpanID, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.Parent, payload, err = readUvarint(payload); err != nil {
		return r, nil, err
	}
	if r.Name, payload, err = readString(payload); err != nil {
		return r, nil, err
	}
	if r.Node, payload, err = readString(payload); err != nil {
		return r, nil, err
	}
	if r.Start, payload, err = readVarint(payload); err != nil {
		return r, nil, err
	}
	if r.End, payload, err = readVarint(payload); err != nil {
		return r, nil, err
	}
	if len(payload) < 1 {
		return r, nil, fmt.Errorf("%w: span record without error byte", ErrCorrupt)
	}
	r.Err = payload[0] != 0
	return r, payload[1:], nil
}

// AppendSpanRecords encodes a uvarint count followed by the records.
func AppendSpanRecords(buf []byte, recs []obs.SpanRecord) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendSpanRecord(buf, &recs[i])
	}
	return buf
}

// ReadSpanRecords decodes a record batch, returning the remainder.
func ReadSpanRecords(payload []byte) ([]obs.SpanRecord, []byte, error) {
	n, payload, err := readUvarint(payload)
	if err != nil {
		return nil, nil, err
	}
	if n > maxSpanRecords {
		return nil, nil, fmt.Errorf("%w: implausible span record count %d", ErrCorrupt, n)
	}
	if n == 0 {
		return nil, payload, nil
	}
	recs := make([]obs.SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var r obs.SpanRecord
		if r, payload, err = readSpanRecord(payload); err != nil {
			return nil, nil, err
		}
		recs = append(recs, r)
	}
	return recs, payload, nil
}

// AppendSpansReq encodes a MsgSpans drain request.
func AppendSpansReq(buf []byte, traceID uint64) []byte {
	buf = beginMsg(buf, MsgSpans)
	return codec.AppendUvarint(buf, traceID)
}

// DecodeSpansReq decodes a MsgSpans payload.
func DecodeSpansReq(payload []byte) (uint64, error) {
	traceID, payload, err := readUvarint(payload)
	if err != nil {
		return 0, err
	}
	return traceID, wantEmpty(payload)
}

// AppendSpansResp encodes the drained records.
func AppendSpansResp(buf []byte, recs []obs.SpanRecord) []byte {
	buf = beginMsg(buf, MsgSpansResp)
	return AppendSpanRecords(buf, recs)
}

// DecodeSpansResp decodes a MsgSpansResp payload.
func DecodeSpansResp(payload []byte) ([]obs.SpanRecord, error) {
	recs, payload, err := ReadSpanRecords(payload)
	if err != nil {
		return nil, err
	}
	return recs, wantEmpty(payload)
}
