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
// not per access). The encoding is internal/codec's, so the
// structures on the wire are the same ones the in-process path
// computes.
//
// There is one framing and one connection path. A frame is a 4-byte
// length, a body — version byte, routing header (stream id, trace
// context, returned span records), message — and a CRC32C trailer. A
// message is a type byte plus payload. Every message type is one row
// of the message table (msgs) and one struct whose Wire method both
// encodes and decodes its payload on a codec.Coder. The client
// (client.go, mux.go) multiplexes every call to a node over one
// connection with write and read deadlines and bounded
// exponential-backoff retry; every request is idempotent (writes place
// the same bytes at the same offsets), which is what makes blind retry
// after a connection drop safe. The server side (conn.go) is one
// demultiplexing loop shared by the data daemons (server.go) and the
// metadata service. transport.go adapts a set of daemons to
// clusterfile.Transport.
package rpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
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

// frameSlack is the room a data frame needs beyond its payload: the
// frame header and the message head, whose file name is the only part
// of unbounded length. The client clamps its chunk to
// MaxFrame-frameSlack, so every piece fits a frame for names of up to
// the 255 bytes a subfile's on-disk name allows, with margin.
const frameSlack = 1 << 10

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
	MsgError        byte = 0x1F
)

// msgSpec is the message table's row of one message type.
type msgSpec struct {
	// name labels the type in metrics, spans and errors.
	name string
	// req marks a request type a client sends as a call: each has a
	// per-type request series on the client and the server. The hello
	// preface is a request the dial sends, not a call.
	req bool
	// body returns a zero body to decode into; nil for a message that
	// is its type byte alone.
	body func() codec.Message
}

// msgs is the message table: every message type of the protocol, by
// type byte. A new message is one struct, one Wire method and one row.
var msgs = [256]msgSpec{
	MsgCreateFile: {"create_file", true, func() codec.Message { return new(CreateFileReq) }},
	MsgSetView:    {"set_view", true, func() codec.Message { return new(SetViewReq) }},
	MsgWriteSegs:  {"write_segments", true, func() codec.Message { return new(WriteSegsReq) }},
	MsgReadSegs:   {"read_segments", true, func() codec.Message { return new(ReadSegsReq) }},
	MsgStat:       {"stat", true, func() codec.Message { return new(StatReq) }},
	MsgClose:      {"close", true, func() codec.Message { return new(CloseReq) }},
	MsgPing:       {"ping", true, nil},
	MsgHello:      {"hello", false, func() codec.Message { return new(hello) }},
	MsgChecksum:   {"checksum", true, func() codec.Message { return new(ChecksumReq) }},
	MsgEpoch:      {"epoch", true, func() codec.Message { return new(EpochReq) }},

	MsgMetaCreate:      {"meta_create", true, func() codec.Message { return new(MetaCreateReq) }},
	MsgMetaOpen:        {"meta_open", true, func() codec.Message { return new(MetaNameReq) }},
	MsgMetaList:        {"meta_list", true, nil},
	MsgMetaRemove:      {"meta_remove", true, func() codec.Message { return new(MetaNameReq) }},
	MsgMetaCommit:      {"meta_commit", true, func() codec.Message { return new(MetaCommitReq) }},
	MsgMetaExtend:      {"meta_extend", true, func() codec.Message { return new(MetaExtendReq) }},
	MsgMetaNodes:       {"meta_nodes", true, nil},
	MsgMetaNode:        {"meta_node", true, func() codec.Message { return new(MetaNode) }},
	MsgMetaVote:        {"meta_vote", true, func() codec.Message { return new(MetaVoteReq) }},
	MsgMetaAppend:      {"meta_append", true, func() codec.Message { return new(MetaAppendReq) }},
	MsgMetaSnapInstall: {"meta_snap_install", true, func() codec.Message { return new(MetaSnapInstallReq) }},
	MsgMetaStatus:      {"meta_status", true, nil},

	MsgMetaFileResp:   {"meta_file_resp", false, func() codec.Message { return new(MetaFile) }},
	MsgMetaListResp:   {"meta_list_resp", false, func() codec.Message { return new(MetaListResp) }},
	MsgMetaNodesResp:  {"meta_nodes_resp", false, func() codec.Message { return new(MetaNodesResp) }},
	MsgMetaVoteResp:   {"meta_vote_resp", false, func() codec.Message { return new(MetaVoteResp) }},
	MsgMetaAppendResp: {"meta_append_resp", false, func() codec.Message { return new(MetaAppendResp) }},
	MsgMetaStatusResp: {"meta_status_resp", false, func() codec.Message { return new(MetaStatusInfo) }},

	MsgOK:           {"ok", false, nil},
	MsgData:         {"data", false, func() codec.Message { return new(dataResp) }},
	MsgStatResp:     {"stat_resp", false, func() codec.Message { return new(statResp) }},
	MsgChecksumResp: {"checksum_resp", false, func() codec.Message { return new(checksumResp) }},
	MsgError:        {"error", false, func() codec.Message { return new(RemoteError) }},
}

// MsgName returns the metrics label of a message type.
func MsgName(t byte) string {
	if name := msgs[t].name; name != "" {
		return name
	}
	return "unknown"
}

// Encode appends a message — type byte t, then body m — to buf. A
// message that is its type byte alone takes a nil body.
func Encode(buf []byte, t byte, m codec.Message) []byte {
	buf = append(buf, t)
	if m == nil {
		return buf
	}
	return codec.Append(buf, m)
}

// Decode decodes a message payload into body m, which the payload must
// fill exactly; a nil body takes an empty payload. Failures wrap
// ErrCorrupt.
func Decode(payload []byte, m codec.Message) error {
	if m == nil {
		if len(payload) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload))
		}
		return nil
	}
	return corrupt(codec.Decode(payload, m))
}

// corrupt files a codec failure under ErrCorrupt.
func corrupt(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
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

// frameBufPools recycle frame encode/decode buffers across requests on
// both sides of the wire, in two classes: message heads and control
// frames draw from the small class, data frames from the large one. One
// shared pool let a 40-byte request hold a chunk-sized buffer while its
// reply allocated another, and let a data frame pop a small buffer only
// to drop it.
var frameBufPools [2]sync.Pool

// smallFrameBuf is the capacity of every small-class buffer, so any
// small request fits the first buffer it pops.
const smallFrameBuf = 4 << 10

// frameBufClass is the pool class of a buffer of (at least) n bytes.
func frameBufClass(n int) int {
	if n <= smallFrameBuf {
		return 0
	}
	return 1
}

// maxPooledFrame caps frame-pool retention: buffers above this size are
// dropped on release instead of returned to the pool, so one oversized
// frame cannot pin tens of megabytes for the life of the process.
// Default-sized pieces sit well below the cap, which is the point —
// the steady-state pool holds chunk-sized buffers only.
const maxPooledFrame = 8 << 20

// framePoolDiscards counts buffers dropped by the retention cap.
var framePoolDiscards atomic.Int64

// FramePoolDiscards reports how many frame buffers were discarded
// rather than pooled because they exceeded the retention cap.
func FramePoolDiscards() int64 { return framePoolDiscards.Load() }

// getFrameBuf returns a zero-length buffer with at least n capacity.
func getFrameBuf(n int) []byte {
	class := frameBufClass(n)
	if v := frameBufPools[class].Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:0]
		}
	}
	if class == 0 {
		n = smallFrameBuf
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
	frameBufPools[frameBufClass(cap(b))].Put(&b)
}

// frameHdr is the routing header every frame body carries between the
// version byte and the message.
type frameHdr struct {
	// sid pairs a reply with its request: both frames carry the id the
	// client drew for the call. The connection preface travels on
	// stream 0.
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

// Wire codes the routing header.
func (h *frameHdr) Wire(c *codec.Coder) {
	c.Uvarint(&h.sid)
	c.Uvarint(&h.trace)
	c.Uvarint(&h.span)
	codec.List(c, &h.spans)
	for i := range h.spans {
		spanWire(c, &h.spans[i])
	}
}

// spanWire codes one span record of the header's span section.
func spanWire(c *codec.Coder, r *obs.SpanRecord) {
	c.Uvarint(&r.TraceID)
	c.Uvarint(&r.SpanID)
	c.Uvarint(&r.Parent)
	c.String(&r.Name)
	c.String(&r.Node)
	c.Varint(&r.Start)
	c.Varint(&r.End)
	c.Bool(&r.Err)
}

func appendFrameHdr(buf []byte, ver byte, h *frameHdr) []byte {
	c := codec.NewEncoder(append(buf, ver))
	h.Wire(&c)
	return c.Buf()
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

// WriteFrameV writes msg (a type byte plus payload, as Encode builds
// it) as one untraced frame on stream 0, stamped with
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
	c := codec.NewDecoder(body[1:])
	h.Wire(&c)
	c.Byte(&msgType)
	if err := c.Err(); err != nil {
		return h, 0, nil, corrupt(err)
	}
	return h, msgType, c.Buf(), nil
}

// ParseFrame splits a frame body into message type and payload,
// checking the protocol version and skipping the routing header.
func ParseFrame(body []byte) (msgType byte, payload []byte, err error) {
	_, msgType, payload, err = parseFrame(body)
	return msgType, payload, err
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

// Wire codes the request; Phys is copied out of the frame.
func (r *CreateFileReq) Wire(c *codec.Coder) {
	c.String(&r.Name)
	c.BytesCopy(&r.Phys)
	codec.List(c, &r.Subfiles)
	for i := range r.Subfiles {
		c.Int(&r.Subfiles[i])
	}
	c.Bool(&r.Reopen)
	c.Uvarint(&r.Epoch)
}

// SetViewReq registers an encoded projection under its fingerprint.
// Projections are content-addressed and file-independent, so one
// registration serves every file and subfile that uses the shape.
type SetViewReq struct {
	Fingerprint uint64
	Proj        []byte // redist.EncodeProjection
}

// Wire codes the request; Proj is copied out of the frame.
func (r *SetViewReq) Wire(c *codec.Coder) {
	c.Uvarint(&r.Fingerprint)
	c.BytesCopy(&r.Proj)
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

// Wire codes the request. Data ends the message and aliases the frame
// buffer; the server copies it into storage before releasing the frame.
func (r *WriteSegsReq) Wire(c *codec.Coder) {
	c.Raw(&r.Data, r.head(c))
}

// head codes the request up to the bytes of Data and returns their
// count.
func (r *WriteSegsReq) head(c *codec.Coder) int {
	c.String(&r.File)
	c.Varint(&r.Subfile)
	c.Uvarint(&r.Fingerprint)
	c.Varint(&r.Lo)
	c.Varint(&r.Hi)
	c.Uvarint(&r.Epoch)
	return c.Len(len(r.Data))
}

// appendWriteSegsHead encodes req up to, and not including, the bytes
// of Data, which end the message: the client sends them as their own
// part of the vectored frame write instead of copying them here.
//
// Like every data-path helper — the frame header, the WriteSegs and
// ReadSegs heads, the Data head and Error, coded on every piece — it
// calls the concrete Wire method rather than Encode or Decode: a coder
// handed to Wire through an interface escapes to the heap, one
// allocation per call (TestDataPathAllocs).
func appendWriteSegsHead(buf []byte, req *WriteSegsReq) []byte {
	c := codec.NewEncoder(append(buf, MsgWriteSegs))
	req.head(&c)
	return c.Buf()
}

// AppendWriteSegs encodes req as a message.
func AppendWriteSegs(buf []byte, req *WriteSegsReq) []byte {
	return append(appendWriteSegsHead(buf, req), req.Data...)
}

// DecodeWriteSegs decodes a MsgWriteSegs payload. Data aliases the
// frame buffer.
func DecodeWriteSegs(payload []byte) (*WriteSegsReq, error) {
	req := &WriteSegsReq{}
	c := codec.NewDecoder(payload)
	req.Wire(&c)
	if err := corrupt(c.Finish()); err != nil {
		return nil, err
	}
	return req, nil
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

// Wire codes the request.
func (r *ReadSegsReq) Wire(c *codec.Coder) {
	c.String(&r.File)
	c.Varint(&r.Subfile)
	c.Uvarint(&r.Fingerprint)
	c.Varint(&r.Lo)
	c.Varint(&r.Hi)
	c.Varint(&r.N)
	c.Uvarint(&r.Epoch)
}

// appendReadSegs encodes req as a message (a data-path helper).
func appendReadSegs(buf []byte, req *ReadSegsReq) []byte {
	c := codec.NewEncoder(append(buf, MsgReadSegs))
	req.Wire(&c)
	return c.Buf()
}

// decodeReadSegs decodes a MsgReadSegs payload (a data-path helper).
func decodeReadSegs(payload []byte) (*ReadSegsReq, error) {
	req := &ReadSegsReq{}
	c := codec.NewDecoder(payload)
	req.Wire(&c)
	if err := corrupt(c.Finish()); err != nil {
		return nil, err
	}
	return req, nil
}

// StatReq asks for a subfile's current length.
type StatReq struct {
	File    string
	Subfile int64
}

// Wire codes the request.
func (r *StatReq) Wire(c *codec.Coder) {
	c.String(&r.File)
	c.Varint(&r.Subfile)
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

// Wire codes the request.
func (r *CloseReq) Wire(c *codec.Coder) {
	c.String(&r.File)
	c.Bool(&r.Remove)
}

// hello is the connection preface: the protocol version the client
// speaks and its fair-share tenant (empty = default class).
type hello struct {
	Ver    byte
	Tenant string
}

// Wire codes the preface.
func (h *hello) Wire(c *codec.Coder) {
	c.Byte(&h.Ver)
	c.String(&h.Tenant)
}

// ChecksumReq asks for the CRC32C of subfile bytes [Off, Off+N); bytes
// beyond the subfile's current length count as zeroes.
type ChecksumReq struct {
	File    string
	Subfile int64
	Off, N  int64
}

// Wire codes the request.
func (r *ChecksumReq) Wire(c *codec.Coder) {
	c.String(&r.File)
	c.Varint(&r.Subfile)
	c.Varint(&r.Off)
	c.Varint(&r.N)
}

// dataResp is a payload-carrying success response.
type dataResp struct {
	Data []byte
}

// Wire codes the response; Data aliases the frame buffer.
func (d *dataResp) Wire(c *codec.Coder) {
	c.Bytes(&d.Data)
}

// appendDataHead begins a payload-carrying success response of n data
// bytes, which the caller appends (or gathers in place) behind it.
func appendDataHead(buf []byte, n int) []byte {
	c := codec.NewEncoder(append(buf, MsgData))
	c.Len(n)
	return c.Buf()
}

// decodeData decodes a MsgData payload; the bytes alias the frame (a
// data-path helper).
func decodeData(payload []byte) ([]byte, error) {
	var d dataResp
	c := codec.NewDecoder(payload)
	d.Wire(&c)
	return d.Data, corrupt(c.Finish())
}

// statResp answers a Stat with the subfile's length.
type statResp struct {
	Len int64
}

// Wire codes the response.
func (r *statResp) Wire(c *codec.Coder) {
	c.Varint(&r.Len)
}

// checksumResp answers a Checksum.
type checksumResp struct {
	Sum uint32
}

// Wire codes the sum as a uvarint; a decoded one must fit 32 bits.
func (r *checksumResp) Wire(c *codec.Coder) {
	v := uint64(r.Sum)
	c.Uvarint(&v)
	if v > 0xFFFFFFFF {
		c.Fail(fmt.Errorf("checksum %d overflows uint32", v))
	}
	r.Sum = uint32(v)
}

// Wire codes an error response: code, message, the retry-after hint
// (uvarint milliseconds; sub-millisecond hints round up to 1ms so the
// hint survives the wire) and the leader redirect hint.
func (e *RemoteError) Wire(c *codec.Coder) {
	c.Uvarint(&e.Code)
	c.String(&e.Msg)
	ms := uint64(e.RetryAfter.Milliseconds())
	if ms == 0 && e.RetryAfter > 0 {
		ms = 1
	}
	c.Uvarint(&ms)
	if c.Decoding() {
		// A hint past time.Duration's range saturates instead of wrapping.
		e.RetryAfter = time.Duration(min(ms, math.MaxInt64/uint64(time.Millisecond))) * time.Millisecond
	}
	c.String(&e.Leader)
}

// appendError encodes an error response (a data-path helper).
func appendError(buf []byte, e *RemoteError) []byte {
	c := codec.NewEncoder(append(buf, MsgError))
	e.Wire(&c)
	return c.Buf()
}

// decodeError decodes a MsgError payload (a data-path helper).
func decodeError(payload []byte) (*RemoteError, error) {
	e := &RemoteError{}
	c := codec.NewDecoder(payload)
	e.Wire(&c)
	if err := corrupt(c.Finish()); err != nil {
		return nil, err
	}
	return e, nil
}
