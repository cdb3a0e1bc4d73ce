// Package meta implements the metadata service of the elastic
// cluster: a flat multi-file namespace whose entries carry a
// versioned placement map (epoch, node list, assign permutation), a
// membership table of data daemons, and the client/driver sides of
// the online-rebalance protocol that moves a file between placements
// as a paper redistribution (MAP_new ∘ MAP⁻¹_old).
//
// The state lives in a crash-safe append-only log with snapshot
// compaction (store.go); parafilemd serves it over the storage wire's
// framing (service.go); a 2f+1 group of parafilemd nodes replicates
// the log leader-to-followers under a leased term (group.go); clients
// open files by name, cache the placement map, refetch it on
// ErrStalePlacement and fail over between endpoints on ErrNotLeader
// (fs.go); and the rebalance driver fences, copies and commits
// placement flips (rebalance.go).
package meta

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"parafile/internal/codec"
	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// Store errors the service maps onto wire error codes.
var (
	// ErrNotFound: the namespace has no entry under the name.
	ErrNotFound = errors.New("meta: file not found")
	// ErrExists: create of a name that is already present.
	ErrExists = errors.New("meta: file already exists")
	// ErrStaleEpoch: a commit named an epoch the file has moved past —
	// the CAS lost; the caller must refetch and re-drive.
	ErrStaleEpoch = errors.New("meta: placement epoch has moved")
	// ErrNodeBusy: a decommission was requested for a node that is
	// still active or still referenced by a file's placement.
	ErrNodeBusy = errors.New("meta: node still referenced")
	// ErrNotCommitted: the mutation is durable in the local log but
	// quorum replication failed, so its cluster-wide outcome is
	// unknown — it survives if this node's log wins the next election
	// and is overwritten otherwise. Callers must treat the operation
	// as failed and retry through the (new) leader.
	ErrNotCommitted = errors.New("meta: mutation not replicated to a quorum")
	// ErrMisrestored: the snapshot on disk is newer than the log tail.
	// No crash of this store leaves that state behind (the log is only
	// truncated after the snapshot that covers it is durable), so the
	// directory was reassembled from mismatched backups; replaying it
	// would silently roll acknowledged mutations back.
	ErrMisrestored = errors.New("meta: snapshot is newer than the log tail (mis-restored backup)")
)

// Record types of the append-only log. recPut carries the FULL
// MetaFile state (create, commit and extend all write the complete
// record), so replay is trivially idempotent: the last put wins, and
// replaying a pre-snapshot log over a snapshot converges to the same
// namespace.
const (
	recPut  byte = 1
	recDel  byte = 2
	recNode byte = 3
	// recEntry wraps any of the above in a replication envelope:
	// [recEntry][uvarint index][uvarint term][inner record]. Indexes
	// are dense and monotonic; the term is the leader term that
	// proposed the mutation. Standalone stores (term 0) write
	// envelopes too, so every log carries positions.
	recEntry byte = 4
	// recApplied is the snapshot header: [recApplied][uvarint index]
	// [uvarint term] — the log position the snapshot state covers.
	// Always the first record of an indexed snapshot.
	recApplied byte = 5
)

const (
	logName  = "meta.log"
	snapName = "meta.snap"
	tmpName  = "meta.snap.tmp"
	voteName = "meta.vote"
)

// snapMagic heads a snapshot file; a file without it is rejected
// (a torn rename cannot produce one, the write-fsync-rename order
// guarantees the named snapshot is always complete).
var snapMagic = []byte("pfmeta01")

// defaultSnapshotEvery is the log size that triggers compaction.
const defaultSnapshotEvery = 1 << 20

// epochTermShift positions the leader term in the high bits of every
// placement epoch a replicated store hands out: epoch ≥ term<<20 for
// every epoch committed under that term, so any epoch a deposed
// leader's driver staged (term T) sorts below every epoch the new
// leader commits (term > T) — the data daemons' existing epoch
// ratchet then fences the deposed writes with no new daemon code. The
// 20-bit band allows ~10⁶ rebalances within one term before an epoch
// would cross into the next term's band.
const epochTermShift = 20

var storeCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// CrashPoint names one durability boundary inside the store. The
// torture test's StoreConfig.Crash hook returns an error at a chosen
// point to simulate the process dying exactly there: the store
// abandons the operation mid-flight (leaving whatever bytes the real
// crash would have left) and must not be used afterwards — the test
// reopens the directory and asserts replay converges.
type CrashPoint string

// The crash points, in the order an append and a snapshot cross them.
const (
	// CrashAppendPre: before any log bytes of the record are written.
	CrashAppendPre CrashPoint = "append.pre"
	// CrashAppendPartial: half the record frame written (torn tail).
	CrashAppendPartial CrashPoint = "append.partial"
	// CrashAppendUnsynced: the full frame written but not fsynced.
	CrashAppendUnsynced CrashPoint = "append.unsynced"
	// CrashAppendSynced: the record is durable; the caller never
	// learned it (the ack was lost with the process).
	CrashAppendSynced CrashPoint = "append.synced"
	// CrashSnapPartial: half the snapshot tmp written.
	CrashSnapPartial CrashPoint = "snap.partial"
	// CrashSnapUnsynced: the full tmp written but not fsynced.
	CrashSnapUnsynced CrashPoint = "snap.unsynced"
	// CrashSnapUnrenamed: the tmp is durable but never renamed.
	CrashSnapUnrenamed CrashPoint = "snap.unrenamed"
	// CrashSnapRenamed: the snapshot is live; the log (a now-redundant
	// prefix history) was never truncated.
	CrashSnapRenamed CrashPoint = "snap.renamed"
)

// CrashPoints lists every crash point for tests to sweep.
var CrashPoints = []CrashPoint{
	CrashAppendPre, CrashAppendPartial, CrashAppendUnsynced, CrashAppendSynced,
	CrashSnapPartial, CrashSnapUnsynced, CrashSnapUnrenamed, CrashSnapRenamed,
}

// Replication describes one durable log entry handed to the
// replicator hook: its position, the tail it follows (what followers
// check against their own), and the inner record payload exactly as
// followers must append it. A follower that nacks (diverged or
// behind) is repaired asynchronously by snapshot install; the
// mutation's quorum comes from the peers that ack.
type Replication struct {
	PrevIndex, PrevTerm uint64
	Index, Term         uint64
	Payload             []byte
}

// ReplicateFunc ships one durable log entry to a quorum of followers
// before the mutation is acknowledged. It runs under the store lock
// (mutations are serialized through replication by design); returning
// an error marks the mutation ErrNotCommitted.
type ReplicateFunc func(ctx context.Context, r Replication) error

// Store is the durable namespace + membership state of the metadata
// service. Every mutation appends one framed record to the log
// ([uvarint len][payload][crc32c]) and fsyncs before returning;
// snapshot compaction rewrites the current state into meta.snap
// (write tmp, fsync, rename) and truncates the log. A crash at any
// point replays to the last complete record: a torn log tail is
// discarded, a torn snapshot tmp is ignored, and a crash between the
// snapshot rename and the log truncation is safe because the log is a
// prefix history whose replay over the snapshot converges.
type Store struct {
	mu    sync.Mutex
	dir   string
	log   *os.File
	inj   *fault.Injector
	crash func(CrashPoint) error

	files     map[string]*rpc.MetaFile
	nodes     map[string]byte
	nodeOrder []string

	// lastIndex/lastTerm are the log tail: the position of the newest
	// record (snapshot base included). term is the leader term stamped
	// into new entries and epoch floors (0 = standalone). The atomic
	// shadows let the group's heartbeat loop read the tail without
	// waiting out a replication round that holds mu.
	lastIndex, lastTerm uint64
	tailIndex, tailTerm atomic.Uint64
	snapIndex           uint64
	term                uint64
	replicate           ReplicateFunc

	logBytes      int64
	snapshotEvery int64

	metAppends   *obs.Counter
	metSnapshots *obs.Counter
	metFiles     *obs.Gauge
	metNodes     *obs.Gauge
	metLogBytes  *obs.Gauge
}

// StoreConfig configures OpenStore.
type StoreConfig struct {
	// Fault, when non-nil, interposes the injector on log appends
	// (fault.OpMetaAppend) and snapshots (fault.OpMetaSnapshot), node 0.
	Fault *fault.Injector
	// SnapshotEvery is the log size in bytes that triggers compaction
	// (default 1 MiB; negative disables automatic snapshots).
	SnapshotEvery int64
	// Metrics receives the store series; nil records nothing.
	Metrics *obs.Registry
	// Crash, when non-nil, is consulted at every durability boundary;
	// a non-nil return simulates the process dying there (see
	// CrashPoint). Test-only: after a simulated crash the store must
	// be abandoned and the directory reopened.
	Crash func(CrashPoint) error
}

// OpenStore opens (or initialises) the metadata store rooted at dir,
// replaying the snapshot and log into memory.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:           dir,
		inj:           cfg.Fault,
		crash:         cfg.Crash,
		files:         make(map[string]*rpc.MetaFile),
		nodes:         make(map[string]byte),
		snapshotEvery: cfg.SnapshotEvery,
	}
	if st.snapshotEvery == 0 {
		st.snapshotEvery = defaultSnapshotEvery
	}
	if reg := cfg.Metrics; reg != nil {
		st.metAppends = reg.Counter("parafile_meta_log_appends_total")
		st.metSnapshots = reg.Counter("parafile_meta_snapshots_total")
		st.metFiles = reg.Gauge("parafile_meta_files")
		st.metNodes = reg.Gauge("parafile_meta_nodes")
		st.metLogBytes = reg.Gauge("parafile_meta_log_bytes")
	}
	// A leftover snapshot tmp is a crash mid-snapshot: the rename never
	// happened, so the old snapshot + log still hold the full state.
	os.Remove(filepath.Join(dir, tmpName))

	if err := st.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := st.replayLog(); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st.log = logf
	if fi, err := logf.Stat(); err == nil {
		st.logBytes = fi.Size()
	}
	st.setTail(st.lastIndex, st.lastTerm)
	st.publishGauges()
	return st, nil
}

func (st *Store) setTail(index, term uint64) {
	st.lastIndex, st.lastTerm = index, term
	st.tailIndex.Store(index)
	st.tailTerm.Store(term)
}

func (st *Store) publishGauges() {
	if st.metFiles != nil {
		st.metFiles.Set(int64(len(st.files)))
		st.metNodes.Set(int64(len(st.nodes)))
		st.metLogBytes.Set(st.logBytes)
	}
}

func (st *Store) crashAt(p CrashPoint) error {
	if st.crash != nil {
		return st.crash(p)
	}
	return nil
}

// LastEntry returns the log tail (index, term) without taking the
// store lock, so heartbeats read it even while a replication round is
// in flight.
func (st *Store) LastEntry() (index, term uint64) {
	return st.tailIndex.Load(), st.tailTerm.Load()
}

// SetTerm installs the leader term stamped into new entries and the
// placement-epoch floor. The group calls it on every term change.
func (st *Store) SetTerm(term uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.term = term
}

// Term returns the currently installed leader term.
func (st *Store) Term() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.term
}

// SetReplicator installs the quorum-replication hook run inside every
// mutation after its local append. Install before serving traffic.
func (st *Store) SetReplicator(fn ReplicateFunc) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.replicate = fn
}

// epochFloorLocked is the smallest placement epoch the current term
// may hand out (0 when standalone).
func (st *Store) epochFloorLocked() uint64 {
	if st.term == 0 {
		return 0
	}
	return st.term << epochTermShift
}

// EpochFloor exposes the current term's epoch floor (for drivers that
// stage daemon stores before committing).
func (st *Store) EpochFloor() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epochFloorLocked()
}

// loadSnapshot replays meta.snap, if present. Unlike the log, a named
// snapshot must be complete — it only ever appears via rename after
// fsync — so corruption here is a hard error, not a torn tail.
func (st *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(st.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	files, nodes, order, idx, term, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("meta: %s: %w", snapName, err)
	}
	st.files, st.nodes, st.nodeOrder = files, nodes, order
	st.snapIndex = idx
	st.setTail(idx, term)
	return nil
}

// decodeSnapshot parses snapshot bytes into fresh state, leaving the
// caller's maps untouched on error. The first record is the recApplied
// position header.
func decodeSnapshot(data []byte) (files map[string]*rpc.MetaFile, nodes map[string]byte, nodeOrder []string, index, term uint64, err error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, nil, nil, 0, 0, errors.New("bad snapshot magic")
	}
	tmp := &Store{
		files: make(map[string]*rpc.MetaFile),
		nodes: make(map[string]byte),
	}
	payload, rest, err := readRecord(data[len(snapMagic):])
	if err != nil {
		return nil, nil, nil, 0, 0, err
	}
	var pos appliedRec
	if err := decodeRecord(payload, recApplied, &pos); err != nil {
		return nil, nil, nil, 0, 0, err
	}
	for len(rest) > 0 {
		if payload, rest, err = readRecord(rest); err != nil {
			return nil, nil, nil, 0, 0, err
		}
		if err = tmp.apply(payload); err != nil {
			return nil, nil, nil, 0, 0, err
		}
	}
	return tmp.files, tmp.nodes, tmp.nodeOrder, pos.index, pos.term, nil
}

// replayLog replays meta.log to the last complete record, truncating
// a torn tail (the crash-mid-append case) in place. Envelope records
// at or below the snapshot's applied index are the prefix history a
// crash-before-truncate leaves behind and replay as no-ops; an index
// gap means records are missing and is a hard error; and a log whose
// newest record sits below the applied index can only come from a
// mis-restored backup (ErrMisrestored) — accepting it would silently
// roll acknowledged mutations back.
func (st *Store) replayLog() error {
	path := filepath.Join(st.dir, logName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	good := 0
	var maxIndex uint64
	rest := data
	for len(rest) > 0 {
		payload, next, rerr := readRecord(rest)
		if rerr != nil {
			// Torn or corrupt tail: everything before it replayed; drop
			// the rest so the next append starts on a record boundary.
			if terr := os.Truncate(path, int64(good)); terr != nil {
				return terr
			}
			break
		}
		var e entryRec
		if err := decodeRecord(payload, recEntry, &e); err != nil {
			return fmt.Errorf("meta: %s: %w", logName, err)
		}
		maxIndex = max(maxIndex, e.index)
		switch {
		case e.index <= st.lastIndex:
			// Prefix history already covered by the snapshot (or a
			// duplicate append): replay is a no-op.
		case e.index == st.lastIndex+1:
			if err := st.apply(e.inner); err != nil {
				return fmt.Errorf("meta: %s: %w", logName, err)
			}
			st.setTail(e.index, e.term)
		default:
			return fmt.Errorf("meta: %s: log gap: entry %d follows tail %d", logName, e.index, st.lastIndex)
		}
		good = len(data) - len(next)
		rest = next
	}
	if good > 0 && maxIndex < st.snapIndex {
		return fmt.Errorf("%w: snapshot covers index %d, log ends at %d", ErrMisrestored, st.snapIndex, maxIndex)
	}
	return nil
}

// readRecord splits one [uvarint len][payload][crc32c] record off buf.
func readRecord(buf []byte) (payload, rest []byte, err error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, errors.New("truncated record length")
	}
	if n > 1<<24 {
		return nil, nil, fmt.Errorf("implausible record length %d", n)
	}
	body := buf[w:]
	if uint64(len(body)) < n+4 {
		return nil, nil, errors.New("truncated record")
	}
	payload = body[:n]
	sum := binary.BigEndian.Uint32(body[n : n+4])
	if crc32.Checksum(payload, storeCastagnoli) != sum {
		return nil, nil, errors.New("record checksum mismatch")
	}
	return payload, body[n+4:], nil
}

// record encodes a log or snapshot record: its type byte, then body.
func record(t byte, body codec.Message) []byte {
	return codec.Append([]byte{t}, body)
}

// decodeRecord decodes a record that must be of type t into body.
func decodeRecord(payload []byte, t byte, body codec.Message) error {
	if len(payload) == 0 || payload[0] != t {
		return fmt.Errorf("not a record of type %d", t)
	}
	return codec.Decode(payload[1:], body)
}

// entryRec is the recEntry envelope: a log position and the inner
// record it carries.
type entryRec struct {
	index, term uint64
	inner       []byte
}

func (r *entryRec) Wire(c *codec.Coder) {
	c.Uvarint(&r.index)
	c.Uvarint(&r.term)
	c.Rest(&r.inner)
}

// appliedRec is the recApplied snapshot header: the log position the
// snapshot state covers.
type appliedRec struct {
	index, term uint64
}

func (r *appliedRec) Wire(c *codec.Coder) {
	c.Uvarint(&r.index)
	c.Uvarint(&r.term)
}

// delRec is the recDel body: the name of the entry removed.
type delRec struct {
	name string
}

func (r *delRec) Wire(c *codec.Coder) {
	c.String(&r.name)
}

// voteRec is the body of the vote file (before its checksum): the
// current term and the candidate voted for in it.
type voteRec struct {
	term     uint64
	votedFor string
}

func (r *voteRec) Wire(c *codec.Coder) {
	c.Uvarint(&r.term)
	c.String(&r.votedFor)
}

// apply folds one record payload — a put (the full file record), a
// del or a node (the membership entry) — into the in-memory state.
func (st *Store) apply(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("empty record")
	}
	switch payload[0] {
	case recPut:
		f := new(rpc.MetaFile)
		if err := decodeRecord(payload, recPut, f); err != nil {
			return err
		}
		st.files[f.Name] = f
	case recDel:
		var r delRec
		if err := decodeRecord(payload, recDel, &r); err != nil {
			return err
		}
		delete(st.files, r.name)
	case recNode:
		var n rpc.MetaNode
		if err := decodeRecord(payload, recNode, &n); err != nil {
			return err
		}
		if _, known := st.nodes[n.Addr]; !known {
			st.nodeOrder = append(st.nodeOrder, n.Addr)
		}
		st.nodes[n.Addr] = n.State
	default:
		return fmt.Errorf("unknown record type %d", payload[0])
	}
	return nil
}

// writeFrameLocked frames, writes and fsyncs one envelope payload,
// crossing the append crash points in order. Caller holds st.mu.
func (st *Store) writeFrameLocked(payload []byte) error {
	if err := st.crashAt(CrashAppendPre); err != nil {
		return err
	}
	frame := appendFramed(nil, payload)
	if st.crash != nil {
		if err := st.crash(CrashAppendPartial); err != nil {
			// The real crash tears the frame mid-write: leave half of it.
			st.log.Write(frame[:len(frame)/2])
			return err
		}
	}
	if _, err := st.log.Write(frame); err != nil {
		return err
	}
	if err := st.crashAt(CrashAppendUnsynced); err != nil {
		return err
	}
	if err := st.log.Sync(); err != nil {
		return err
	}
	st.logBytes += int64(len(frame))
	if st.metAppends != nil {
		st.metAppends.Inc()
	}
	return st.crashAt(CrashAppendSynced)
}

// appendRecord wraps payload in the next envelope, makes it durable
// locally, then replicates it to a quorum. A replication failure
// returns ErrNotCommitted: the caller still applies the mutation (the
// entry is in the durable log, so memory must match what a restart
// would replay) but reports failure — the group reconciles the entry
// through the next election. Caller holds st.mu.
func (st *Store) appendRecord(ctx context.Context, op fault.Op, name string, payload []byte) error {
	if st.inj != nil {
		if err := st.inj.Fire(ctx, 0, op, name); err != nil {
			return err
		}
	}
	prevIndex, prevTerm := st.lastIndex, st.lastTerm
	index, term := st.lastIndex+1, st.term
	if err := st.writeFrameLocked(record(recEntry, &entryRec{index, term, payload})); err != nil {
		return err
	}
	st.setTail(index, term)
	st.publishGauges()
	if st.replicate != nil {
		r := Replication{
			PrevIndex: prevIndex, PrevTerm: prevTerm,
			Index: index, Term: term,
			Payload: payload,
		}
		if err := st.replicate(ctx, r); err != nil {
			return fmt.Errorf("%w: %v", ErrNotCommitted, err)
		}
	}
	return nil
}

// maybeSnapshot compacts once the log outgrows the threshold. Called
// by mutators after the mutation is applied to memory, so the
// serialized state always covers the record that triggered it.
// Compaction failure is not a mutation failure: the record is
// durable, the oversized log just survives to the next trigger.
// Caller holds st.mu.
func (st *Store) maybeSnapshot(ctx context.Context) {
	if st.snapshotEvery > 0 && st.logBytes >= st.snapshotEvery {
		_ = st.snapshotLocked(ctx)
	}
}

// Snapshot compacts the store: current state into meta.snap, log
// truncated. Exposed for tests and the admin path; mutations trigger
// it automatically past StoreConfig.SnapshotEvery.
func (st *Store) Snapshot(ctx context.Context) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapshotLocked(ctx)
}

// serializeLocked renders the current state in snapshot format:
// magic, applied-position header, file records, node records.
func (st *Store) serializeLocked() []byte {
	buf := append([]byte(nil), snapMagic...)
	buf = appendFramed(buf, record(recApplied, &appliedRec{st.lastIndex, st.lastTerm}))
	names := make([]string, 0, len(st.files))
	for name := range st.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf = appendFramed(buf, record(recPut, st.files[name]))
	}
	for _, addr := range st.nodeOrder {
		buf = appendFramed(buf, record(recNode, &rpc.MetaNode{Addr: addr, State: st.nodes[addr]}))
	}
	return buf
}

// SerializeState renders the full current state (snapshot format) for
// replication-driven state transfer to a diverged follower.
func (st *Store) SerializeState() []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.serializeLocked()
}

// installTempLocked writes buf as the new snapshot: tmp, fsync,
// rename — crossing the snapshot crash points in order.
func (st *Store) installTempLocked(buf []byte) error {
	tmp := filepath.Join(st.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if st.crash != nil {
		if err := st.crash(CrashSnapPartial); err != nil {
			f.Write(buf[:len(buf)/2])
			f.Close()
			return err
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := st.crashAt(CrashSnapUnsynced); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := st.crashAt(CrashSnapUnrenamed); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, snapName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return st.crashAt(CrashSnapRenamed)
}

func (st *Store) snapshotLocked(ctx context.Context) error {
	if st.inj != nil {
		if err := st.inj.Fire(ctx, 0, fault.OpMetaSnapshot, ""); err != nil {
			return err
		}
	}
	if err := st.installTempLocked(st.serializeLocked()); err != nil {
		return err
	}
	// The snapshot is durable; the log's history is now redundant.
	// A crash before this truncation replays it over the snapshot,
	// which converges (puts carry full state).
	if err := st.log.Truncate(0); err != nil {
		return err
	}
	if _, err := st.log.Seek(0, 0); err != nil {
		return err
	}
	st.logBytes = 0
	st.snapIndex = st.lastIndex
	if st.metSnapshots != nil {
		st.metSnapshots.Inc()
	}
	st.publishGauges()
	return nil
}

// AppendEntry appends one replicated entry shipped by the leader.
// Duplicates (index at or below the tail) are no-ops; a gap is an
// error the group turns into a nack (triggering a snapshot install).
func (st *Store) AppendEntry(ctx context.Context, index, term uint64, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if index <= st.lastIndex {
		return nil
	}
	if index != st.lastIndex+1 {
		return fmt.Errorf("meta: log gap: entry %d follows tail %d", index, st.lastIndex)
	}
	if err := st.writeFrameLocked(record(recEntry, &entryRec{index, term, payload})); err != nil {
		return err
	}
	if err := st.apply(payload); err != nil {
		return err
	}
	st.setTail(index, term)
	st.publishGauges()
	st.maybeSnapshot(ctx)
	return nil
}

// InstallSnapshot atomically replaces the entire store state with a
// serialized state shipped by the leader (the repair path for a
// diverged or lagging follower): validate, write-tmp + fsync +
// rename, truncate the log, swap memory.
func (st *Store) InstallSnapshot(ctx context.Context, state []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	files, nodes, order, idx, term, err := decodeSnapshot(state)
	if err != nil {
		return fmt.Errorf("meta: install snapshot: %w", err)
	}
	if err := st.installTempLocked(state); err != nil {
		return err
	}
	if err := st.log.Truncate(0); err != nil {
		return err
	}
	if _, err := st.log.Seek(0, 0); err != nil {
		return err
	}
	st.logBytes = 0
	st.files, st.nodes, st.nodeOrder = files, nodes, order
	st.snapIndex = idx
	st.setTail(idx, term)
	if st.metSnapshots != nil {
		st.metSnapshots.Inc()
	}
	st.publishGauges()
	return nil
}

func appendFramed(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, storeCastagnoli))
}

// SaveVote durably records the election state (current term + the
// candidate voted for in it) with the same tmp + fsync + rename
// pattern as snapshots, so a voter never forgets a granted ballot
// across a crash.
func (st *Store) SaveVote(term uint64, votedFor string) error {
	buf := codec.Append(nil, &voteRec{term, votedFor})
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, storeCastagnoli))
	tmp := filepath.Join(st.dir, voteName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err == nil {
		f.Sync()
		f.Close()
	}
	return os.Rename(tmp, filepath.Join(st.dir, voteName))
}

// LoadVote reads the persisted election state (zero values when none
// or corrupt — a torn vote file forgets the ballot, which only risks
// a double vote if the crash hit exactly between persist and send;
// the file is written before any ballot leaves the node).
func (st *Store) LoadVote() (term uint64, votedFor string) {
	data, err := os.ReadFile(filepath.Join(st.dir, voteName))
	if err != nil || len(data) < 4 {
		return 0, ""
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, storeCastagnoli) != sum {
		return 0, ""
	}
	var v voteRec
	if codec.Decode(body, &v) != nil {
		return 0, ""
	}
	return v.term, v.votedFor
}

// cloneFile deep-copies a record so callers cannot alias store state.
func cloneFile(f *rpc.MetaFile) *rpc.MetaFile {
	cp := *f
	cp.Nodes = append([]string(nil), f.Nodes...)
	cp.Assign = append([]int(nil), f.Assign...)
	return &cp
}

// Get returns the named file's record.
func (st *Store) Get(name string) (*rpc.MetaFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return cloneFile(f), nil
}

// List returns every namespace entry, name-sorted.
func (st *Store) List() []*rpc.MetaFile {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*rpc.MetaFile, 0, len(st.files))
	for _, f := range st.files {
		out = append(out, cloneFile(f))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Create persists a new namespace entry, raising its epoch to the
// current term's floor so every placement handed out under term T
// carries an epoch ≥ T<<20.
func (st *Store) Create(ctx context.Context, f *rpc.MetaFile) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.files[f.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, f.Name)
	}
	if floor := st.epochFloorLocked(); f.Epoch < floor {
		f.Epoch = floor
	}
	err := st.appendRecord(ctx, fault.OpMetaAppend, f.Name, record(recPut, f))
	if err != nil && !errors.Is(err, ErrNotCommitted) {
		return err
	}
	st.files[f.Name] = cloneFile(f)
	st.publishGauges()
	st.maybeSnapshot(ctx)
	return err
}

// Remove deletes a namespace entry; removing an absent name is OK
// (idempotent, like the daemons' close).
func (st *Store) Remove(ctx context.Context, name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.files[name]; !ok {
		return nil
	}
	err := st.appendRecord(ctx, fault.OpMetaAppend, name, record(recDel, &delRec{name}))
	if err != nil && !errors.Is(err, ErrNotCommitted) {
		return err
	}
	delete(st.files, name)
	st.publishGauges()
	st.maybeSnapshot(ctx)
	return err
}

// Commit is the placement CAS: if the file still sits at req.OldEpoch
// it flips to the committed epoch with the new store name, node list
// and assign permutation, returning the committed record; otherwise
// ErrStaleEpoch. The committed epoch is req.NewEpoch when set (the
// driver stamped it into the staged daemon stores, so it must clear
// the current term's floor — a floor violation means the driver
// staged under a deposed leader and must re-drive), else OldEpoch+1
// raised to the floor.
func (st *Store) Commit(ctx context.Context, req *rpc.MetaCommitReq) (*rpc.MetaFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[req.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, req.Name)
	}
	if f.Epoch != req.OldEpoch {
		return nil, fmt.Errorf("%w: %q is at epoch %d, commit named %d",
			ErrStaleEpoch, req.Name, f.Epoch, req.OldEpoch)
	}
	if len(req.Nodes) == 0 || len(req.Assign) == 0 {
		return nil, errors.New("meta: commit with empty placement")
	}
	epoch := req.OldEpoch + 1
	floor := st.epochFloorLocked()
	if req.NewEpoch != 0 {
		if req.NewEpoch <= req.OldEpoch {
			return nil, fmt.Errorf("meta: commit epoch %d not past %d", req.NewEpoch, req.OldEpoch)
		}
		if req.NewEpoch < floor {
			return nil, fmt.Errorf("%w: commit epoch %d is below term floor %d (staged under a deposed leader)",
				ErrStaleEpoch, req.NewEpoch, floor)
		}
		epoch = req.NewEpoch
	} else if epoch < floor {
		epoch = floor
	}
	next := cloneFile(f)
	next.Epoch = epoch
	next.StoreName = req.StoreName
	next.Nodes = append([]string(nil), req.Nodes...)
	next.Assign = append([]int(nil), req.Assign...)
	err := st.appendRecord(ctx, fault.OpMetaAppend, req.Name, record(recPut, next))
	if err != nil && !errors.Is(err, ErrNotCommitted) {
		return nil, err
	}
	st.files[req.Name] = next
	st.maybeSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	return cloneFile(next), nil
}

// Extend ratchets the file's logical length (never shrinks).
func (st *Store) Extend(ctx context.Context, name string, length int64) (*rpc.MetaFile, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if length > f.Length {
		next := cloneFile(f)
		next.Length = length
		err := st.appendRecord(ctx, fault.OpMetaAppend, name, record(recPut, next))
		if err != nil && !errors.Is(err, ErrNotCommitted) {
			return nil, err
		}
		st.files[name] = next
		st.maybeSnapshot(ctx)
		if err != nil {
			return nil, err
		}
	}
	return cloneFile(st.files[name]), nil
}

// Nodes returns the membership table in registration order.
func (st *Store) Nodes() []rpc.MetaNode {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nodesLocked()
}

func (st *Store) nodesLocked() []rpc.MetaNode {
	out := make([]rpc.MetaNode, 0, len(st.nodeOrder))
	for _, addr := range st.nodeOrder {
		out = append(out, rpc.MetaNode{Addr: addr, State: st.nodes[addr]})
	}
	return out
}

// ActiveNodes returns the addresses eligible for new placements, in
// registration order.
func (st *Store) ActiveNodes() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for _, addr := range st.nodeOrder {
		if st.nodes[addr] == rpc.NodeActive {
			out = append(out, addr)
		}
	}
	return out
}

// SetNode registers a node or changes its membership state, returning
// the updated table. Decommission (NodeRemoved) is validated: the node
// must already be draining and no file's placement may still reference
// it — rebalance first, then remove.
func (st *Store) SetNode(ctx context.Context, addr string, state byte) ([]rpc.MetaNode, error) {
	if addr == "" {
		return nil, errors.New("meta: empty node address")
	}
	if state > rpc.NodeRemoved {
		return nil, fmt.Errorf("meta: unknown node state %d", state)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if state == rpc.NodeRemoved {
		if st.nodes[addr] != rpc.NodeDraining {
			return nil, fmt.Errorf("%w: %s is %s, drain it first",
				ErrNodeBusy, addr, rpc.NodeStateName(st.nodes[addr]))
		}
		for _, f := range st.files {
			for _, n := range f.Nodes {
				if n == addr {
					return nil, fmt.Errorf("%w: %s still places file %q",
						ErrNodeBusy, addr, f.Name)
				}
			}
		}
	}
	err := st.appendRecord(ctx, fault.OpMetaAppend, addr, record(recNode, &rpc.MetaNode{Addr: addr, State: state}))
	if err != nil && !errors.Is(err, ErrNotCommitted) {
		return nil, err
	}
	if _, known := st.nodes[addr]; !known {
		st.nodeOrder = append(st.nodeOrder, addr)
	}
	st.nodes[addr] = state
	st.publishGauges()
	st.maybeSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	return st.nodesLocked(), nil
}

// Close syncs and closes the log.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		return nil
	}
	err := st.log.Sync()
	if cerr := st.log.Close(); err == nil {
		err = cerr
	}
	st.log = nil
	return err
}
