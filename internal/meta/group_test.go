package meta

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// group_test.go spins real 3-node replication groups over TCP
// loopback: stores, groups and services in-process, clients dialed
// with the full endpoint list. Timeouts are shrunk so elections
// resolve in tens of milliseconds.

type groupNode struct {
	addr  string
	store *Store
	group *Group
	svc   *Service
	ln    net.Listener
	reg   *obs.Registry
}

type groupCluster struct {
	t     *testing.T
	nodes []*groupNode
	addrs []string
	// fault, when non-nil, interposes on every node's log appends and
	// on its group's replication rounds and campaigns.
	fault *fault.Injector
}

const (
	testHeartbeat   = 25 * time.Millisecond
	testElectionMin = 150 * time.Millisecond
	testLease       = 100 * time.Millisecond
)

func startGroupCluster(t *testing.T, n int) *groupCluster {
	t.Helper()
	return startFaultyGroupCluster(t, n, nil)
}

func startFaultyGroupCluster(t *testing.T, n int, inj *fault.Injector) *groupCluster {
	t.Helper()
	gc := &groupCluster{t: t, fault: inj}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		gc.addrs = append(gc.addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		gc.nodes = append(gc.nodes, gc.startNode(t.TempDir(), listeners[i], gc.addrs[i]))
	}
	t.Cleanup(gc.stopAll)
	return gc
}

func (gc *groupCluster) startNode(dir string, ln net.Listener, addr string) *groupNode {
	gc.t.Helper()
	reg := obs.NewRegistry()
	store, err := OpenStore(dir, StoreConfig{Metrics: reg, Fault: gc.fault})
	if err != nil {
		gc.t.Fatalf("OpenStore: %v", err)
	}
	group, err := NewGroup(GroupConfig{
		Self:               addr,
		Peers:              gc.addrs,
		Store:              store,
		HeartbeatEvery:     testHeartbeat,
		ElectionTimeoutMin: testElectionMin,
		LeaseDuration:      testLease,
		ReplTimeout:        500 * time.Millisecond,
		Metrics:            reg,
		Fault:              gc.fault,
	})
	if err != nil {
		gc.t.Fatalf("NewGroup: %v", err)
	}
	svc := NewService(ServiceConfig{Store: store, Metrics: reg, Group: group})
	node := &groupNode{addr: addr, store: store, group: group, svc: svc, ln: ln, reg: reg}
	group.Start()
	go svc.Serve(ln)
	return node
}

func (gc *groupCluster) stopNode(node *groupNode) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	node.svc.Shutdown(ctx)
	node.group.Stop()
	node.store.Close()
}

func (gc *groupCluster) stopAll() {
	for _, n := range gc.nodes {
		if n != nil {
			gc.stopNode(n)
		}
	}
	gc.nodes = nil
}

// waitLeader blocks until exactly one live node holds the lease and
// returns it.
func (gc *groupCluster) waitLeader(exclude ...*groupNode) *groupNode {
	gc.t.Helper()
	skip := map[*groupNode]bool{}
	for _, n := range exclude {
		skip[n] = true
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var leader *groupNode
		for _, n := range gc.nodes {
			if n == nil || skip[n] {
				continue
			}
			if n.group.IsLeader() {
				leader = n
			}
		}
		if leader != nil {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	gc.t.Fatal("no leader elected within 5s")
	return nil
}

func (gc *groupCluster) dial(reg *obs.Registry) *FS {
	eps := ""
	for i, a := range gc.addrs {
		if i > 0 {
			eps += ","
		}
		eps += a
	}
	fs := Dial(eps, Options{Metrics: reg, OpTimeout: 5 * time.Second})
	gc.t.Cleanup(func() { fs.Close() })
	return fs
}

func TestGroupElectsAndReplicates(t *testing.T) {
	gc := startGroupCluster(t, 3)
	leader := gc.waitLeader()
	ctx := context.Background()

	cl := gc.dial(obs.NewRegistry())
	mdSetNode(t, cl, ctx, "d1:1")
	mdCreate(t, cl, ctx, "repl-file")

	// The epoch handed out under term T must clear the fencing floor.
	mf, err := cl.md.MetaOpen(ctx, "repl-file")
	if err != nil {
		t.Fatalf("MetaOpen: %v", err)
	}
	term := leader.group.Status().Term
	if floor := term << epochTermShift; mf.Epoch < floor {
		t.Fatalf("epoch %d below term-%d floor %d — deposed leaders would not be fenced", mf.Epoch, term, floor)
	}

	// Every mutation was quorum-replicated; with all three nodes live
	// the followers converge to the leader's log almost immediately.
	waitConverged(t, gc, "repl-file")

	// Exactly one leaseholder.
	count := 0
	for _, n := range gc.nodes {
		if n.group.IsLeader() {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d simultaneous leaseholders, want exactly 1", count)
	}
}

func waitConverged(t *testing.T, gc *groupCluster, name string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, node := range gc.nodes {
			if node == nil {
				continue
			}
			if _, err := node.store.Get(name); err == nil {
				n++
			}
		}
		if n == len(gc.nodes) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, node := range gc.nodes {
		if node == nil {
			continue
		}
		_, err := node.store.Get(name)
		t.Logf("node %d (%s): Get(%q) = %v, tail=%v", i, node.addr, name, err,
			node.store.EpochFloor())
	}
	t.Fatalf("%q did not replicate to every node", name)
}

func TestGroupFailoverOnLeaderKill(t *testing.T) {
	gc := startGroupCluster(t, 3)
	leader := gc.waitLeader()
	ctx := context.Background()

	reg := obs.NewRegistry()
	cl := gc.dial(reg)
	mdSetNode(t, cl, ctx, "d1:1")
	mdCreate(t, cl, ctx, "survivor")
	oldTerm := leader.group.Status().Term

	// Kill the leader outright — no resign, no drain.
	for i, n := range gc.nodes {
		if n == leader {
			gc.nodes[i] = nil
		}
	}
	leader.ln.Close()
	ctxKill, cancel := context.WithTimeout(context.Background(), time.Second)
	leader.svc.Shutdown(ctxKill)
	cancel()
	leader.group.Stop()
	leader.store.Close()

	// A follower must take over at a higher term.
	next := gc.waitLeader()
	if next.addr == leader.addr {
		t.Fatal("dead leader still leading")
	}
	if got := next.group.Status().Term; got <= oldTerm {
		t.Fatalf("failover term %d did not advance past %d", got, oldTerm)
	}

	// The same client keeps working against the survivors: the stale
	// endpoint is rotated past, the namespace is intact, and new
	// mutations replicate to the remaining quorum.
	mf, err := cl.md.MetaOpen(ctx, "survivor")
	if err != nil {
		t.Fatalf("Stat after failover: %v", err)
	}
	if mf.Name != "survivor" {
		t.Fatalf("Stat after failover returned %q", mf.Name)
	}
	mdSetNode(t, cl, ctx, "d2:1")
	mdCreate(t, cl, ctx, "post-failover")
}

// TestGroupElectionWindowBlocksNeverStale is the client-visible lease
// guarantee: operations issued while no one holds the lease block and
// retry inside the op timeout, and no request is ever answered from a
// node without the lease — so a read can never observe a rolled-back
// namespace, only wait out the election.
func TestGroupElectionWindowBlocksNeverStale(t *testing.T) {
	gc := startGroupCluster(t, 3)
	leader := gc.waitLeader()
	ctx := context.Background()

	cl := gc.dial(obs.NewRegistry())
	mdSetNode(t, cl, ctx, "d1:1")
	mdCreate(t, cl, ctx, "during-election")
	if _, err := cl.md.MetaExtend(ctx, "during-election", 8192); err != nil {
		t.Fatalf("Extend: %v", err)
	}

	// Suspend the leader's heartbeats: its lease lapses, the group is
	// leaderless until a follower's election timeout fires. Requests
	// in that window must redirect/retry — never be answered stale.
	leader.group.suspendHeartbeats(true)
	time.Sleep(testLease + 10*time.Millisecond) // let the lease lapse

	// The lapsed leader itself refuses immediately.
	direct := rpc.NewClient(rpc.ClientConfig{Addr: leader.addr, MaxRetries: 1})
	_, derr := direct.MetaOpen(ctx, "during-election")
	direct.Close()
	if !leader.group.IsLeader() && !errors.Is(derr, rpc.ErrNotLeader) {
		t.Fatalf("lapsed leader answered %v, want NotLeader refusal", derr)
	}

	// The failover client blocks through the election and then answers
	// with the committed state.
	start := time.Now()
	mf, err := cl.md.MetaOpen(ctx, "during-election")
	if err != nil {
		t.Fatalf("Stat during election window: %v", err)
	}
	if mf.Length != 8192 {
		t.Fatalf("stale read through election: length %d, want 8192", mf.Length)
	}
	t.Logf("stat during election window took %v", time.Since(start))

	leader.group.suspendHeartbeats(false)
	gc.waitLeader()
}

// The helpers below drive metadata-only mutations through the FS's
// failover client: full FS.Create/Write would dial data daemons,
// which these tests don't run.
func mdSetNode(t *testing.T, cl *FS, ctx context.Context, addr string) {
	t.Helper()
	if _, err := cl.md.MetaNodeSet(ctx, addr, rpc.NodeActive); err != nil {
		t.Fatalf("MetaNodeSet(%s): %v", addr, err)
	}
}

func mdCreate(t *testing.T, cl *FS, ctx context.Context, name string) *rpc.MetaFile {
	t.Helper()
	mf, err := cl.md.MetaCreate(ctx, &rpc.MetaCreateReq{Name: name, StripeBytes: 4096, Replication: 1})
	if err != nil {
		t.Fatalf("MetaCreate(%s): %v", name, err)
	}
	return mf
}

// TestGroupDeposedLeaderCommitFenced: a commit staged under an old
// term must be refused once a new leader (higher term, higher epoch
// floor) has taken over — the metadata half of the fence; daemon-side
// epoch ratcheting is covered by the elasticity tests.
func TestGroupDeposedLeaderCommitFenced(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Created and committed under term 1.
	st.SetTerm(1)
	if err := st.Create(ctx, testFile("fenced", 1, "n1:1")); err != nil {
		t.Fatal(err)
	}
	mf, err := st.Get("fenced")
	if err != nil {
		t.Fatal(err)
	}

	// A driver staged daemon stores under term 1's floor...
	stagedEpoch := mf.Epoch + 1

	// ...but an election moved the group to term 2 before the commit.
	st.SetTerm(2)
	_, err = st.Commit(ctx, &rpc.MetaCommitReq{
		Name: "fenced", OldEpoch: mf.Epoch, NewEpoch: stagedEpoch,
		StoreName: "fenced@stale", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed-leader commit: got %v, want ErrStaleEpoch", err)
	}

	// Re-staged at the new floor, the same commit goes through.
	_, err = st.Commit(ctx, &rpc.MetaCommitReq{
		Name: "fenced", OldEpoch: mf.Epoch, NewEpoch: uint64(2) << epochTermShift,
		StoreName: "fenced@fresh", Nodes: []string{"n1:1"}, Assign: []int{0},
	})
	if err != nil {
		t.Fatalf("re-staged commit at the new floor: %v", err)
	}
}

// TestGroupFollowerRepairBySnapshot: a follower that missed entries
// (here: started empty after the others committed) is repaired by
// full-state snapshot install and converges.
func TestGroupFollowerRepair(t *testing.T) {
	gc := startGroupCluster(t, 3)
	gc.waitLeader()
	ctx := context.Background()

	cl := gc.dial(obs.NewRegistry())
	mdSetNode(t, cl, ctx, "d1:1")
	for i := 0; i < 5; i++ {
		mdCreate(t, cl, ctx, fmt.Sprintf("file-%d", i))
	}
	for i := 0; i < 5; i++ {
		waitConverged(t, gc, fmt.Sprintf("file-%d", i))
	}
}

// TestGroupSingleMemberElectsItself: a group whose only peer is itself
// has its quorum of one before any ballot, so it leads at once instead
// of campaigning forever.
func TestGroupSingleMemberElectsItself(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	self := "127.0.0.1:1"
	g, err := NewGroup(GroupConfig{Self: self, Peers: []string{self}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Stop()
	for deadline := time.Now().Add(2 * time.Second); !g.IsLeader(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			st := g.Status()
			t.Fatalf("1-member group still %v at term %d after 2s", st.Role, st.Term)
		}
	}
	if got := g.Status().Term; got != 1 {
		t.Fatalf("elected at term %d, want 1", got)
	}
}

// TestGroupDeposedMidRoundRedirects: a leader deposed while one of its
// mutations is in its replication round refuses that mutation with a
// NotLeader redirect, not an I/O error, so the client's leader chase
// lands it on the new leader.
func TestGroupDeposedMidRoundRedirects(t *testing.T) {
	// Hold the first replication round (the SetNode below) long enough
	// for a new leader to be elected underneath it.
	inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{
		{Node: fault.AnyNode, Op: fault.OpMetaReplicate, Kind: fault.Delay, Delay: 1500 * time.Millisecond, Times: 1},
	}}, nil)
	gc := startFaultyGroupCluster(t, 3, inj)
	leader := gc.waitLeader()
	ctx := context.Background()
	reg := obs.NewRegistry()
	cl := gc.dial(reg)

	done := make(chan error, 1)
	go func() {
		_, err := cl.SetNode(ctx, "d1:1", rpc.NodeActive)
		done <- err
	}()
	waitFired(t, inj)
	leader.group.suspendHeartbeats(true)
	defer leader.group.suspendHeartbeats(false)
	next := gc.waitLeader(leader)
	if err := <-done; err != nil {
		t.Fatalf("SetNode across the deposition: %v", err)
	}
	if n := reg.Counter("parafile_meta_failovers_total").Value(); n == 0 {
		t.Fatal("SetNode succeeded without a failover: the round was not refused")
	}
	nodes := next.store.Nodes()
	if len(nodes) != 1 || nodes[0].Addr != "d1:1" || nodes[0].State != rpc.NodeActive {
		t.Fatalf("new leader holds membership %+v, want d1:1 active", nodes)
	}
}
