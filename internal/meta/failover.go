package meta

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"time"

	"parafile/internal/obs"
	"parafile/internal/rpc"
)

// failover.go is the client's view of a replicated metadata service: a
// set of candidate endpoints, one of which holds the leader lease at
// any moment. Calls go to the endpoint that answered last; a NotLeader
// refusal follows the redirect hint (or rotates when the refusing node
// doesn't know a leader, as during an election), and transport errors
// rotate too. Retries are jittered so a client herd doesn't stampede
// the new leader the instant an election resolves. The mdClient
// presents the same Meta* surface as *rpc.Client, so the FS and the
// rebalance driver are endpoint-count agnostic.

// mdFailoverAttempts bounds one logical metadata call's leader chase.
// With the jittered backoff below this rides out a full election
// (worst case ~2x ElectionTimeoutMax) with margin.
const mdFailoverAttempts = 16

// clientPool holds one rpc.Client per address, built from a template
// on first use and closed together. A closed pool hands out only
// closed clients, so calls through it fail instead of redialing.
type clientPool struct {
	template rpc.ClientConfig

	mu      sync.Mutex
	clients map[string]*rpc.Client
	closed  bool
}

func newClientPool(template rpc.ClientConfig) *clientPool {
	return &clientPool{template: template, clients: make(map[string]*rpc.Client)}
}

// get returns the pool's client for addr, building it if needed.
func (p *clientPool) get(addr string) *rpc.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	cl := p.clients[addr]
	if cl == nil {
		cfg := p.template
		cfg.Addr = addr
		cl = rpc.NewClient(cfg)
		if p.closed {
			cl.Close()
		}
		p.clients[addr] = cl
	}
	return cl
}

// close closes every client of the pool.
func (p *clientPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, cl := range p.clients {
		cl.Close()
	}
}

// mdClient fans a single-client call surface over multiple metadata
// endpoints with leader discovery and failover.
type mdClient struct {
	pool *clientPool

	mu        sync.Mutex
	endpoints []string
	cur       int // index into endpoints of the last-good node
	rng       *rand.Rand

	backoff      time.Duration
	metFailovers *obs.Counter
}

// newMDClient builds the failover surface over one or more endpoints.
func newMDClient(endpoints []string, template rpc.ClientConfig, reg *obs.Registry) *mdClient {
	if len(endpoints) == 0 {
		endpoints = []string{""}
	}
	m := &mdClient{
		pool:      newClientPool(template),
		endpoints: endpoints,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
		backoff:   25 * time.Millisecond,
	}
	if reg != nil {
		m.metFailovers = reg.Counter("parafile_meta_failovers_total")
	}
	return m
}

// splitEndpoints parses a comma-separated endpoint list.
func splitEndpoints(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// client returns the pooled client for the current endpoint.
func (m *mdClient) client() *rpc.Client {
	m.mu.Lock()
	addr := m.endpoints[m.cur]
	m.mu.Unlock()
	return m.pool.get(addr)
}

// failover moves to the hinted leader when one was named (adding it to
// the endpoint set if it is new), otherwise rotates to the next
// candidate.
func (m *mdClient) failover(hint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.metFailovers != nil {
		m.metFailovers.Inc()
	}
	if hint != "" {
		for i, a := range m.endpoints {
			if a == hint {
				m.cur = i
				return
			}
		}
		m.endpoints = append(m.endpoints, hint)
		m.cur = len(m.endpoints) - 1
		return
	}
	m.cur = (m.cur + 1) % len(m.endpoints)
}

// do runs fn against the current endpoint, chasing the leader through
// NotLeader redirects and rotating past dead nodes, with jittered
// backoff between attempts so elections can resolve. Remote answers
// other than NotLeader are the service's verdict and return as-is.
func (m *mdClient) do(ctx context.Context, fn func(context.Context, *rpc.Client) error) error {
	var lastErr error
	for attempt := 0; attempt < mdFailoverAttempts; attempt++ {
		if attempt > 0 {
			// Full jitter: herds arriving mid-election spread out
			// instead of slamming the winner on the same tick.
			d := m.backoff << uint(attempt-1)
			if d > 500*time.Millisecond {
				d = 500 * time.Millisecond
			}
			m.mu.Lock()
			d = time.Duration(m.rng.Int63n(int64(d)) + int64(m.backoff))
			m.mu.Unlock()
			select {
			case <-ctx.Done():
				return lastErr
			case <-time.After(d):
			}
		}
		err := fn(ctx, m.client())
		if err == nil {
			return nil
		}
		lastErr = err
		var re *rpc.RemoteError
		if errors.As(err, &re) {
			if re.Code == rpc.ErrCodeNotLeader {
				m.failover(re.Leader)
				continue
			}
			// A real answer from a serving leader — not a failover
			// condition.
			return err
		}
		if ctx.Err() != nil {
			return lastErr
		}
		// Transport-level failure: the node may be down, try the next.
		m.failover("")
	}
	return lastErr
}

// ---- the *rpc.Client surface the FS and rebalance driver use ----

func (m *mdClient) MetaCreate(ctx context.Context, req *rpc.MetaCreateReq) (*rpc.MetaFile, error) {
	var out *rpc.MetaFile
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		f, err := cl.MetaCreate(ctx, req)
		if err != nil {
			return err
		}
		out = f
		return nil
	})
	return out, err
}

func (m *mdClient) MetaOpen(ctx context.Context, name string) (*rpc.MetaFile, error) {
	var out *rpc.MetaFile
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		f, err := cl.MetaOpen(ctx, name)
		if err != nil {
			return err
		}
		out = f
		return nil
	})
	return out, err
}

func (m *mdClient) MetaList(ctx context.Context) ([]*rpc.MetaFile, error) {
	var out []*rpc.MetaFile
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		fs, err := cl.MetaList(ctx)
		if err != nil {
			return err
		}
		out = fs
		return nil
	})
	return out, err
}

func (m *mdClient) MetaRemove(ctx context.Context, name string) error {
	return m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		return cl.MetaRemove(ctx, name)
	})
}

func (m *mdClient) MetaCommit(ctx context.Context, req *rpc.MetaCommitReq) (*rpc.MetaFile, error) {
	var out *rpc.MetaFile
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		f, err := cl.MetaCommit(ctx, req)
		if err != nil {
			return err
		}
		out = f
		return nil
	})
	return out, err
}

func (m *mdClient) MetaExtend(ctx context.Context, name string, length int64) (*rpc.MetaFile, error) {
	var out *rpc.MetaFile
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		f, err := cl.MetaExtend(ctx, name, length)
		if err != nil {
			return err
		}
		out = f
		return nil
	})
	return out, err
}

func (m *mdClient) MetaNodes(ctx context.Context) ([]rpc.MetaNode, error) {
	var out []rpc.MetaNode
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		ns, err := cl.MetaNodes(ctx)
		if err != nil {
			return err
		}
		out = ns
		return nil
	})
	return out, err
}

func (m *mdClient) MetaNodeSet(ctx context.Context, addr string, state byte) ([]rpc.MetaNode, error) {
	var out []rpc.MetaNode
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		ns, err := cl.MetaNodeSet(ctx, addr, state)
		if err != nil {
			return err
		}
		out = ns
		return nil
	})
	return out, err
}

// MetaStatus asks the current endpoint for its replication view; any
// node answers (leader or not), so this does not chase the lease —
// only transport failures rotate.
func (m *mdClient) MetaStatus(ctx context.Context) (*rpc.MetaStatusInfo, error) {
	var out *rpc.MetaStatusInfo
	err := m.do(ctx, func(ctx context.Context, cl *rpc.Client) error {
		st, err := cl.MetaStatus(ctx)
		if err != nil {
			return err
		}
		out = st
		return nil
	})
	return out, err
}
