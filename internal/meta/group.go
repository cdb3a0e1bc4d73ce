// group.go is the replication layer of the metadata service: a
// leader-based group of 2f+1 parafilemd processes that ships the
// store's namespace log to a quorum before a mutation is acked.
//
// The protocol is a deliberately small Raft subset. Elections use
// persisted (term, votedFor) ballots with the standard up-to-date log
// check; the winner's term becomes the store term, which sets the
// epoch floor (term<<epochTermShift) that fences deposed leaders out
// of the data path. Log shipping tracks only the tail: a follower
// whose tail does not match the leader's prev position nacks, and the
// leader repairs it with a full-state snapshot install instead of
// walking per-index history (the namespace is small; state transfer
// is the repair path). Leadership is a time-bounded lease: a leader
// serves namespace reads and accepts mutations only while a quorum
// acked a round less than LeaseDuration ago, and voters refuse
// ballots while they believe a live leader holds the lease, so the
// lease window can never contain two leaders.
package meta

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// Group roles. Kept in an atomic so the hot paths (lease checks on
// every namespace request) never take the group lock.
const (
	roleFollower int32 = iota
	roleCandidate
	roleLeader
)

// GroupConfig configures one member of a metadata replication group.
type GroupConfig struct {
	// Self is this node's advertised address; it must appear in Peers.
	Self string
	// Peers is the full group membership including Self. A single-entry
	// group runs standalone: it elects itself immediately and every
	// quorum is satisfied locally.
	Peers []string
	// Store is the local crash-safe namespace store. The group installs
	// itself as the store's replicator.
	Store *Store
	// HeartbeatEvery is the leader's lease-renewal cadence (default
	// 150ms).
	HeartbeatEvery time.Duration
	// ElectionTimeoutMin/Max bound the randomized follower timeout
	// before campaigning (defaults 500ms / 1s). Min must exceed
	// LeaseDuration or a lapsed lease could coexist with a fresh
	// election elsewhere.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// LeaseDuration is how long a quorum-acked round entitles the
	// leader to serve (default 400ms).
	LeaseDuration time.Duration
	// ReplTimeout bounds one replication or ballot round (default 1s).
	ReplTimeout time.Duration

	Metrics *obs.Registry
	Log     *slog.Logger
	// Fault fires fault.OpMetaReplicate once per replication round and
	// fault.OpMetaVote once per campaign, node 0.
	Fault *fault.Injector

	// Client templates the per-peer RPC clients (Addr is overridden).
	// Zero value works; timeouts default to ReplTimeout.
	Client rpc.ClientConfig
}

// Group is one member's view of the replication group.
type Group struct {
	cfg    GroupConfig
	st     *Store
	quorum int

	role       atomic.Int32
	term       atomic.Uint64
	leader     atomic.Value // string: believed leaseholder address
	leaseUntil atomic.Int64 // unix nanos; leader-only
	lastQuorum atomic.Int64 // unix nanos of last quorum-acked round
	lastHeard  atomic.Int64 // unix nanos of last valid leader contact
	electAt    atomic.Int64 // unix nanos; follower campaign deadline
	suspended  atomic.Bool  // test hook: leader stops heartbeating

	// mu serializes term/role/vote transitions. Never held while
	// waiting on the network, and never taken by the store-lock-holding
	// replicate path (which defers step-downs to a goroutine instead).
	mu       sync.Mutex
	votedFor string
	rng      *rand.Rand

	peers     map[string]*rpc.Client // excludes self
	repairing sync.Map               // addr -> struct{}: one repair in flight per peer

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	metTerm      *obs.Gauge
	metLag       *obs.Gauge
	metElections *obs.Counter
	metStepDowns *obs.Counter
	metRepairs   *obs.Counter
}

// NewGroup builds a group member. Call Start to join the group and
// Stop to leave; the group owns the peer connections.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("meta: group needs a store")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("meta: group needs a self address")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 150 * time.Millisecond
	}
	if cfg.ElectionTimeoutMin <= 0 {
		cfg.ElectionTimeoutMin = 500 * time.Millisecond
	}
	if cfg.ElectionTimeoutMax <= cfg.ElectionTimeoutMin {
		cfg.ElectionTimeoutMax = 2 * cfg.ElectionTimeoutMin
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 400 * time.Millisecond
	}
	if cfg.LeaseDuration >= cfg.ElectionTimeoutMin {
		return nil, fmt.Errorf("meta: lease %v must be shorter than election timeout %v",
			cfg.LeaseDuration, cfg.ElectionTimeoutMin)
	}
	if cfg.ReplTimeout <= 0 {
		cfg.ReplTimeout = time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	seen := map[string]bool{}
	var peers []string
	for _, p := range cfg.Peers {
		if p != "" && !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		peers = []string{cfg.Self}
		seen[cfg.Self] = true
	}
	if !seen[cfg.Self] {
		return nil, fmt.Errorf("meta: self %q not in peer list %v", cfg.Self, peers)
	}
	cfg.Peers = peers

	g := &Group{
		cfg:    cfg,
		st:     cfg.Store,
		quorum: len(peers)/2 + 1,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		peers:  make(map[string]*rpc.Client, len(peers)-1),
		stop:   make(chan struct{}),
	}
	g.leader.Store("")
	for _, p := range peers {
		if p == cfg.Self {
			continue
		}
		cc := cfg.Client
		cc.Addr = p
		if cc.DialTimeout <= 0 {
			cc.DialTimeout = cfg.ReplTimeout
		}
		if cc.WriteTimeout <= 0 {
			cc.WriteTimeout = cfg.ReplTimeout
		}
		if cc.ReadTimeout <= 0 {
			cc.ReadTimeout = 2 * cfg.ReplTimeout
		}
		if cc.MaxRetries == 0 {
			// The round loop is the retry policy; per-call retries
			// would just stretch rounds past the lease.
			cc.MaxRetries = 1
		}
		if cc.BreakerThreshold == 0 {
			// A breaker between peers delays failover recovery by its
			// cooldown; rounds already bound the cost of a dead peer.
			cc.BreakerThreshold = -1
		}
		if cc.Metrics == nil {
			cc.Metrics = cfg.Metrics
		}
		g.peers[p] = rpc.NewClient(cc)
	}

	// Resume the persisted ballot so a restart can never vote twice in
	// the same term, and push the term into the store so the epoch
	// floor survives the restart too.
	term, voted := g.st.LoadVote()
	g.term.Store(term)
	g.votedFor = voted
	g.st.SetTerm(term)

	if reg := cfg.Metrics; reg != nil {
		g.metTerm = reg.Gauge("parafile_meta_term")
		g.metLag = reg.Gauge("parafile_meta_replication_lag")
		g.metElections = reg.Counter("parafile_meta_elections_total")
		g.metStepDowns = reg.Counter("parafile_meta_stepdowns_total")
		g.metRepairs = reg.Counter("parafile_meta_repairs_total")
		g.metTerm.Set(int64(term))
	}
	return g, nil
}

// Start installs the group as the store's replicator and begins the
// election/heartbeat loop.
func (g *Group) Start() {
	g.st.SetReplicator(g.replicate)
	now := time.Now()
	g.lastHeard.Store(now.UnixNano())
	if len(g.cfg.Peers) == 1 {
		// Standalone: no one to wait for, take the floor immediately.
		g.electAt.Store(now.UnixNano())
	} else {
		g.resetElectionTimer(now)
	}
	g.wg.Add(1)
	go g.run()
}

// Stop halts the loop and closes the peer connections. The store's
// replicator is left installed but replicate refuses once stopped.
func (g *Group) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	for _, cl := range g.peers {
		cl.Close()
	}
}

// Resign steps down from leadership without changing term, for
// graceful shutdown: the lease is zeroed so namespace traffic is
// refused immediately and a peer can win the next election as soon as
// its timeout fires. No-op on followers.
func (g *Group) Resign() {
	g.mu.Lock()
	if g.role.Load() != roleLeader {
		g.mu.Unlock()
		return
	}
	g.role.Store(roleFollower)
	g.leaseUntil.Store(0)
	g.leader.Store("")
	g.mu.Unlock()
	g.resetElectionTimer(time.Now())
	if g.metStepDowns != nil {
		g.metStepDowns.Inc()
	}
	g.cfg.Log.Info("meta group resigned leadership", "term", g.term.Load())
}

// IsLeader reports whether this node holds a live leader lease right
// now. Namespace requests are gated on it.
func (g *Group) IsLeader() bool {
	return g.role.Load() == roleLeader &&
		time.Now().UnixNano() < g.leaseUntil.Load()
}

// LeaderHint is the address this node believes holds the lease ("" if
// unknown), used for NotLeader redirects.
func (g *Group) LeaderHint() string {
	if g.IsLeader() {
		return g.cfg.Self
	}
	s, _ := g.leader.Load().(string)
	if s == g.cfg.Self {
		// We were deposed or lapsed; don't redirect callers back here.
		return ""
	}
	return s
}

// Status reports this node's view of the group.
func (g *Group) Status() *rpc.MetaStatusInfo {
	role := rpc.RoleFollower
	switch g.role.Load() {
	case roleCandidate:
		role = rpc.RoleCandidate
	case roleLeader:
		role = rpc.RoleLeader
	}
	if len(g.cfg.Peers) == 1 && role == rpc.RoleLeader {
		role = rpc.RoleStandalone
	}
	idx, trm := g.st.LastEntry()
	var leaseMs int64
	if rem := g.leaseUntil.Load() - time.Now().UnixNano(); rem > 0 && g.role.Load() == roleLeader {
		leaseMs = rem / int64(time.Millisecond)
	}
	return &rpc.MetaStatusInfo{
		Term:      g.term.Load(),
		Role:      role,
		Leader:    g.LeaderHint(),
		Self:      g.cfg.Self,
		LastIndex: idx,
		LastTerm:  trm,
		LeaseMs:   leaseMs,
		Peers:     int64(len(g.cfg.Peers)),
	}
}

// suspendHeartbeats is a test hook: a suspended leader keeps its role
// but stops renewing the lease, so tests can force a lease lapse and
// an election without killing the process.
func (g *Group) suspendHeartbeats(v bool) { g.suspended.Store(v) }

// ---- main loop ----

func (g *Group) run() {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		now := time.Now()
		if g.role.Load() == roleLeader {
			if !g.suspended.Load() {
				g.heartbeatRound(now)
			}
			// Check-quorum: a leader partitioned from every follower
			// must stop considering itself special even after its
			// lease lapsed, so it rejoins as a clean follower.
			if now.Sub(time.Unix(0, g.lastQuorum.Load())) > g.cfg.ElectionTimeoutMax {
				g.stepDownSameTerm("lost quorum")
			}
			g.sleep(g.cfg.HeartbeatEvery)
			continue
		}
		deadline := time.Unix(0, g.electAt.Load())
		if now.After(deadline) {
			g.campaign()
			continue
		}
		wait := deadline.Sub(now)
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		g.sleep(wait)
	}
}

func (g *Group) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-g.stop:
	case <-t.C:
	}
}

func (g *Group) resetElectionTimer(now time.Time) {
	g.mu.Lock()
	span := g.cfg.ElectionTimeoutMax - g.cfg.ElectionTimeoutMin
	d := g.cfg.ElectionTimeoutMin + time.Duration(g.rng.Int63n(int64(span)+1))
	g.mu.Unlock()
	g.electAt.Store(now.Add(d).UnixNano())
}

// ---- elections ----

func (g *Group) campaign() {
	g.mu.Lock()
	if g.role.Load() == roleLeader {
		g.mu.Unlock()
		return
	}
	term := g.term.Load() + 1
	// Persist the ballot before asking for anyone else's: if we crash
	// mid-campaign and restart, we must not vote for a different
	// candidate in this term.
	if err := g.st.SaveVote(term, g.cfg.Self); err != nil {
		g.mu.Unlock()
		g.cfg.Log.Error("meta group cannot persist ballot", "err", err)
		g.resetElectionTimer(time.Now())
		return
	}
	g.term.Store(term)
	g.votedFor = g.cfg.Self
	g.role.Store(roleCandidate)
	g.mu.Unlock()
	g.resetElectionTimer(time.Now())
	if g.metTerm != nil {
		g.metTerm.Set(int64(term))
	}
	if g.metElections != nil {
		g.metElections.Inc()
	}
	if g.cfg.Fault != nil {
		if err := g.cfg.Fault.Fire(context.Background(), 0, fault.OpMetaVote, ""); err != nil {
			g.cfg.Log.Info("meta group campaign faulted", "term", term, "err", err)
			return
		}
	}

	lastIdx, lastTrm := g.st.LastEntry()
	req := &rpc.MetaVoteReq{Term: term, Candidate: g.cfg.Self, LastIndex: lastIdx, LastTerm: lastTrm}
	type ballot struct {
		granted bool
		term    uint64
	}
	results := make(chan ballot, len(g.peers))
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ReplTimeout)
	defer cancel()
	for _, cl := range g.peers {
		cl := cl
		go func() {
			resp, err := cl.MetaVote(ctx, req)
			if err != nil {
				results <- ballot{}
				return
			}
			results <- ballot{granted: resp.Granted, term: resp.Term}
		}()
	}
	votes := 1 // self
	// Counting stops at quorum — before any ballot in a 1-member group.
	for i := 0; i < len(g.peers) && votes < g.quorum; i++ {
		var b ballot
		select {
		case b = <-results:
		case <-ctx.Done():
			return
		case <-g.stop:
			return
		}
		if b.term > term {
			g.adoptTerm(b.term, "")
			return
		}
		if b.granted {
			votes++
		}
	}
	if votes >= g.quorum {
		g.becomeLeader(term)
	}
}

func (g *Group) becomeLeader(term uint64) {
	g.mu.Lock()
	if g.term.Load() != term || g.role.Load() != roleCandidate {
		g.mu.Unlock()
		return
	}
	g.role.Store(roleLeader)
	g.leader.Store(g.cfg.Self)
	g.mu.Unlock()
	// Every entry and epoch minted from here on carries this term;
	// term<<epochTermShift becomes the epoch floor that fences any
	// predecessor out of the daemons.
	g.st.SetTerm(term)
	g.cfg.Log.Info("meta group won election", "term", term,
		"peers", len(g.cfg.Peers), "quorum", g.quorum)
	// Establish the lease before the loop's next tick so the first
	// namespace request after the election doesn't see a leader
	// without a lease.
	g.heartbeatRound(time.Now())
}

// adoptTerm moves to a strictly higher term as a follower. leader may
// be "" when the term was learned from a vote response.
func (g *Group) adoptTerm(term uint64, leader string) {
	g.mu.Lock()
	if term <= g.term.Load() {
		g.mu.Unlock()
		return
	}
	wasLeader := g.role.Load() == roleLeader
	g.term.Store(term)
	g.votedFor = ""
	if err := g.st.SaveVote(term, ""); err != nil {
		g.cfg.Log.Error("meta group cannot persist term", "term", term, "err", err)
	}
	g.role.Store(roleFollower)
	g.leader.Store(leader)
	g.leaseUntil.Store(0)
	g.mu.Unlock()
	g.st.SetTerm(term)
	g.resetElectionTimer(time.Now())
	if g.metTerm != nil {
		g.metTerm.Set(int64(term))
	}
	if wasLeader {
		if g.metStepDowns != nil {
			g.metStepDowns.Inc()
		}
		g.cfg.Log.Info("meta group deposed", "term", term, "leader", leader)
	}
}

func (g *Group) stepDownSameTerm(why string) {
	g.mu.Lock()
	if g.role.Load() != roleLeader {
		g.mu.Unlock()
		return
	}
	g.role.Store(roleFollower)
	g.leaseUntil.Store(0)
	g.leader.Store("")
	g.mu.Unlock()
	g.resetElectionTimer(time.Now())
	if g.metStepDowns != nil {
		g.metStepDowns.Inc()
	}
	g.cfg.Log.Info("meta group stepped down", "term", g.term.Load(), "why", why)
}

// ---- lease heartbeats ----

func (g *Group) extendLease(roundStart time.Time) {
	g.lastQuorum.Store(time.Now().UnixNano())
	// The lease extends from when the round *started*: the quorum
	// promise not to elect anyone else is only as fresh as the moment
	// the requests left.
	want := roundStart.Add(g.cfg.LeaseDuration).UnixNano()
	for {
		cur := g.leaseUntil.Load()
		if want <= cur || g.leaseUntil.CompareAndSwap(cur, want) {
			return
		}
	}
}

func (g *Group) heartbeatRound(now time.Time) {
	term := g.term.Load()
	if g.role.Load() != roleLeader {
		return
	}
	if len(g.peers) == 0 {
		g.extendLease(now)
		return
	}
	prevIdx, prevTrm := g.st.LastEntry()
	req := &rpc.MetaAppendReq{Term: term, Leader: g.cfg.Self, PrevIndex: prevIdx, PrevTerm: prevTrm}
	type reply struct {
		addr string
		resp *rpc.MetaAppendResp
	}
	results := make(chan reply, len(g.peers))
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ReplTimeout)
	defer cancel()
	for addr, cl := range g.peers {
		addr, cl := addr, cl
		go func() {
			resp, err := cl.MetaAppendEntries(ctx, req)
			if err != nil {
				results <- reply{addr: addr}
				return
			}
			results <- reply{addr: addr, resp: resp}
		}()
	}
	acks := 1 // self
	minAcked := prevIdx
	extended := false
	for range g.peers {
		var r reply
		select {
		case r = <-results:
		case <-ctx.Done():
			return
		case <-g.stop:
			return
		}
		if r.resp == nil {
			continue
		}
		if r.resp.Term > term {
			g.adoptTerm(r.resp.Term, "")
			return
		}
		if !r.resp.OK {
			g.scheduleRepair(r.addr)
			if r.resp.LastIndex < minAcked {
				minAcked = r.resp.LastIndex
			}
			continue
		}
		acks++
		if r.resp.LastIndex < minAcked {
			minAcked = r.resp.LastIndex
		}
		if acks >= g.quorum && !extended {
			g.extendLease(now)
			extended = true
		}
	}
	if g.metLag != nil && extended {
		g.metLag.Set(int64(prevIdx - minAcked))
	}
}

// ---- log shipping ----

// replicate is the store's replicator hook. It runs with the store
// lock held (mutations are serialized through it), so it must never
// take g.mu — step-downs discovered here are deferred to a goroutine.
func (g *Group) replicate(ctx context.Context, r Replication) error {
	select {
	case <-g.stop:
		return fmt.Errorf("meta: group stopped")
	default:
	}
	term := g.term.Load()
	if g.role.Load() != roleLeader || r.Term != term {
		return fmt.Errorf("meta: not the leader (term %d)", term)
	}
	if g.cfg.Fault != nil {
		if err := g.cfg.Fault.Fire(ctx, 0, fault.OpMetaReplicate, ""); err != nil {
			return err
		}
	}
	start := time.Now()
	if len(g.peers) == 0 {
		g.extendLease(start)
		return nil
	}
	req := &rpc.MetaAppendReq{
		Term: term, Leader: g.cfg.Self,
		PrevIndex: r.PrevIndex, PrevTerm: r.PrevTerm,
		Entries: []rpc.ReplEntry{{Index: r.Index, Term: r.Term, Payload: r.Payload}},
	}
	type reply struct {
		addr string
		resp *rpc.MetaAppendResp
	}
	results := make(chan reply, len(g.peers))
	rctx, cancel := context.WithTimeout(ctx, g.cfg.ReplTimeout)
	defer cancel()
	for addr, cl := range g.peers {
		addr, cl := addr, cl
		go func() {
			resp, err := cl.MetaAppendEntries(rctx, req)
			if err != nil {
				results <- reply{addr: addr}
				return
			}
			results <- reply{addr: addr, resp: resp}
		}()
	}
	acks := 1 // the local durable append counts
	for range g.peers {
		var rp reply
		select {
		case rp = <-results:
		case <-rctx.Done():
			return fmt.Errorf("meta: replication round timed out (%d/%d acks)", acks, g.quorum)
		case <-g.stop:
			return fmt.Errorf("meta: group stopped mid-round")
		}
		if rp.resp == nil {
			continue
		}
		if rp.resp.Term > term {
			// Deposed mid-round. We hold the store lock, so step down
			// asynchronously; refuse this mutation either way. The
			// lease goes now, so the service answers this refusal
			// with a NotLeader redirect.
			higher := rp.resp.Term
			g.leaseUntil.Store(0)
			go g.adoptTerm(higher, "")
			return fmt.Errorf("meta: deposed by term %d", higher)
		}
		if !rp.resp.OK {
			g.scheduleRepair(rp.addr)
			continue
		}
		acks++
		if acks >= g.quorum {
			g.extendLease(start)
			if g.metLag != nil {
				g.metLag.Set(0)
			}
			return nil
		}
	}
	return fmt.Errorf("meta: no quorum (%d/%d acks)", acks, g.quorum)
}

// scheduleRepair launches (at most one per peer) a full-state
// snapshot install toward a follower that nacked.
func (g *Group) scheduleRepair(addr string) {
	if _, busy := g.repairing.LoadOrStore(addr, struct{}{}); busy {
		return
	}
	cl := g.peers[addr]
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.repairing.Delete(addr)
		select {
		case <-g.stop:
			return
		default:
		}
		term := g.term.Load()
		if g.role.Load() != roleLeader {
			return
		}
		state := g.st.SerializeState()
		idx, trm := g.st.LastEntry()
		ctx, cancel := context.WithTimeout(context.Background(), 2*g.cfg.ReplTimeout)
		defer cancel()
		resp, err := cl.MetaSnapInstall(ctx, &rpc.MetaSnapInstallReq{
			Term: term, Leader: g.cfg.Self, LastIndex: idx, LastTerm: trm, State: state,
		})
		if err != nil {
			g.cfg.Log.Info("meta group repair failed", "peer", addr, "err", err)
			return
		}
		if resp.Term > term {
			g.adoptTerm(resp.Term, "")
			return
		}
		if g.metRepairs != nil {
			g.metRepairs.Inc()
		}
		g.cfg.Log.Info("meta group repaired follower", "peer", addr, "index", idx, "term", trm)
	}()
}

// ---- peer-facing handlers (wired into the service's router) ----

// HandleVote answers a peer's election ballot.
func (g *Group) HandleVote(req *rpc.MetaVoteReq) *rpc.MetaVoteResp {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.term.Load()
	if req.Term < cur {
		return &rpc.MetaVoteResp{Term: cur, Granted: false}
	}
	// Lease safety: while we heard from a live leader within the
	// minimum election timeout, refuse the ballot WITHOUT adopting the
	// candidate's term — a partitioned node returning with an inflated
	// term must not depose a healthy leaseholder through us.
	leader, _ := g.leader.Load().(string)
	heard := time.Since(time.Unix(0, g.lastHeard.Load()))
	if heard < g.cfg.ElectionTimeoutMin && leader != "" && leader != req.Candidate {
		return &rpc.MetaVoteResp{Term: cur, Granted: false}
	}
	if g.IsLeader() && req.Candidate != g.cfg.Self {
		return &rpc.MetaVoteResp{Term: cur, Granted: false}
	}
	if req.Term > cur {
		wasLeader := g.role.Load() == roleLeader
		g.term.Store(req.Term)
		g.votedFor = ""
		g.role.Store(roleFollower)
		g.leaseUntil.Store(0)
		g.leader.Store("")
		cur = req.Term
		if g.metTerm != nil {
			g.metTerm.Set(int64(cur))
		}
		if wasLeader && g.metStepDowns != nil {
			g.metStepDowns.Inc()
		}
		g.st.SetTerm(cur)
	}
	lastIdx, lastTrm := g.st.LastEntry()
	upToDate := req.LastTerm > lastTrm ||
		(req.LastTerm == lastTrm && req.LastIndex >= lastIdx)
	if (g.votedFor == "" || g.votedFor == req.Candidate) && upToDate {
		// Persist before granting: the ballot must survive a crash.
		if err := g.st.SaveVote(cur, req.Candidate); err != nil {
			g.cfg.Log.Error("meta group cannot persist vote", "err", err)
			return &rpc.MetaVoteResp{Term: cur, Granted: false}
		}
		g.votedFor = req.Candidate
		g.electAt.Store(time.Now().Add(g.cfg.ElectionTimeoutMax).UnixNano())
		return &rpc.MetaVoteResp{Term: cur, Granted: true}
	}
	if req.Term > g.termPersisted() {
		// Term adopted but vote withheld: still persist the term so a
		// restart cannot regress and double-vote in it.
		if err := g.st.SaveVote(cur, g.votedFor); err != nil {
			g.cfg.Log.Error("meta group cannot persist term", "err", err)
		}
	}
	return &rpc.MetaVoteResp{Term: cur, Granted: false}
}

// termPersisted reads back the durable term (used only to avoid
// redundant vote-file writes).
func (g *Group) termPersisted() uint64 {
	t, _ := g.st.LoadVote()
	return t
}

// HandleAppend applies a leader's log batch (or heartbeat).
func (g *Group) HandleAppend(ctx context.Context, req *rpc.MetaAppendReq) *rpc.MetaAppendResp {
	cur := g.term.Load()
	tailIdx, tailTrm := g.st.LastEntry()
	if req.Term < cur {
		return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: tailIdx}
	}
	if req.Term > cur {
		g.adoptTerm(req.Term, req.Leader)
		cur = req.Term
	} else if g.role.Load() == roleLeader {
		// Same term, different self-styled leader cannot happen (one
		// ballot per term); this is our own echo — ignore.
		return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: tailIdx}
	}
	g.role.Store(roleFollower)
	g.leader.Store(req.Leader)
	now := time.Now()
	g.lastHeard.Store(now.UnixNano())
	g.electAt.Store(now.Add(g.cfg.ElectionTimeoutMax).UnixNano())

	if len(req.Entries) > 0 {
		last := req.Entries[len(req.Entries)-1]
		if tailIdx == last.Index && tailTrm == last.Term {
			// Full duplicate (leader retry after a lost ack).
			return &rpc.MetaAppendResp{Term: cur, OK: true, LastIndex: tailIdx}
		}
	}
	if tailIdx != req.PrevIndex || tailTrm != req.PrevTerm {
		return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: tailIdx}
	}
	for _, e := range req.Entries {
		if err := g.st.AppendEntry(ctx, e.Index, e.Term, e.Payload); err != nil {
			g.cfg.Log.Error("meta group append failed", "index", e.Index, "err", err)
			idx, _ := g.st.LastEntry()
			return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: idx}
		}
	}
	idx, _ := g.st.LastEntry()
	return &rpc.MetaAppendResp{Term: cur, OK: true, LastIndex: idx}
}

// HandleSnapInstall atomically replaces the local state with the
// leader's serialized namespace.
func (g *Group) HandleSnapInstall(ctx context.Context, req *rpc.MetaSnapInstallReq) *rpc.MetaAppendResp {
	cur := g.term.Load()
	tailIdx, _ := g.st.LastEntry()
	if req.Term < cur {
		return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: tailIdx}
	}
	if req.Term > cur {
		g.adoptTerm(req.Term, req.Leader)
		cur = req.Term
	}
	g.role.Store(roleFollower)
	g.leader.Store(req.Leader)
	now := time.Now()
	g.lastHeard.Store(now.UnixNano())
	g.electAt.Store(now.Add(g.cfg.ElectionTimeoutMax).UnixNano())
	if err := g.st.InstallSnapshot(ctx, req.State); err != nil {
		g.cfg.Log.Error("meta group snapshot install failed", "err", err)
		idx, _ := g.st.LastEntry()
		return &rpc.MetaAppendResp{Term: cur, OK: false, LastIndex: idx}
	}
	idx, _ := g.st.LastEntry()
	g.cfg.Log.Info("meta group installed snapshot", "index", idx, "leader", req.Leader)
	return &rpc.MetaAppendResp{Term: cur, OK: true, LastIndex: idx}
}
