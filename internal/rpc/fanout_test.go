package rpc_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parafile/internal/part"
	"parafile/internal/rpc"
)

// fanout_test.go pins the transport's control-plane fan-out: the
// per-daemon CreateFile of an open, SetEpoch and RemoveStore reach
// every daemon at once, and the error they return is still the first
// failure in client order.

// writeGate holds each connection's writes while armed, until the
// armed number of writes has arrived or its deadline passes; either
// way the writes then proceed, and disarm reports whether the gate
// opened before the deadline.
type writeGate struct {
	mu      sync.Mutex
	want    int
	arrived int
	late    bool // a write waited out the deadline
	release chan struct{}
	ctx     context.Context
	cancel  context.CancelFunc
}

func (g *writeGate) arm(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.want, g.arrived, g.late, g.release = n, 0, false, make(chan struct{})
	g.ctx, g.cancel = context.WithTimeout(context.Background(), 5*time.Second)
}

func (g *writeGate) disarm() (opened bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	opened = !g.late && g.arrived >= g.want
	g.want, g.release = 0, nil
	if g.cancel != nil {
		g.cancel()
	}
	return opened
}

func (g *writeGate) wait() {
	g.mu.Lock()
	if g.release == nil || g.arrived >= g.want {
		g.mu.Unlock()
		return
	}
	release, ctx := g.release, g.ctx
	if g.arrived++; g.arrived == g.want {
		close(release)
	}
	g.mu.Unlock()
	select {
	case <-release:
	case <-ctx.Done():
		g.mu.Lock()
		g.late = true
		g.mu.Unlock()
	}
}

type gatedConn struct {
	net.Conn
	g *writeGate
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.g.wait()
	return c.Conn.Write(p)
}

// TestTransportControlCallsFanOut: an open's CreateFiles, a SetEpoch
// and a RemoveStore each have a request in flight to all three daemons
// at once; with the second and third daemon down, the error names the
// second — even when the third fails first.
func TestTransportControlCallsFanOut(t *testing.T) {
	gate := &writeGate{}
	var d net.Dialer
	addrs := []string{
		startDaemon(t, rpc.ServerConfig{}),
		startDaemon(t, rpc.ServerConfig{}),
		startDaemon(t, rpc.ServerConfig{}),
	}
	tr, err := rpc.NewTransport(addrs, rpc.Options{Client: rpc.ClientConfig{
		Dialer: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &gatedConn{Conn: conn, g: gate}, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx := context.Background()
	// Dial every daemon first: the gate holds requests, not preludes.
	if err := tr.SetEpoch(ctx, "warmup", 1, false); err != nil {
		t.Fatal(err)
	}
	pat, err := part.Block1D(48, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name string
		call func() error
	}{
		{"open", func() error {
			handles, err := tr.OpenEpoch(ctx, "f", part.MustFile(0, pat), []int{0, 1, 2}, 1)
			for _, h := range handles {
				h.Close()
			}
			return err
		}},
		{"set epoch", func() error { return tr.SetEpoch(ctx, "f", 2, true) }},
		{"remove store", func() error { return tr.RemoveStore(ctx, "f") }},
	} {
		gate.arm(len(addrs))
		err := step.call()
		if !gate.disarm() {
			t.Errorf("%s: the daemons' requests were never in flight together", step.name)
		}
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}

	// Two dead daemons: the third refuses at once, the second only
	// after a while, so a first-to-fail error would name the third.
	slowDead, fastDead := "127.0.0.1:1", "127.0.0.1:2"
	dead, err := rpc.NewTransport([]string{addrs[0], slowDead, fastDead}, rpc.Options{Client: rpc.ClientConfig{
		MaxRetries:       -1,
		BreakerThreshold: -1,
		Dialer: func(ctx context.Context, network, addr string) (net.Conn, error) {
			switch addr {
			case slowDead:
				time.Sleep(50 * time.Millisecond)
				return nil, errors.New("slow daemon down")
			case fastDead:
				return nil, errors.New("fast daemon down")
			}
			return d.DialContext(ctx, network, addr)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	for _, step := range []struct {
		name, want string
		call       func() error
	}{
		{"set epoch", "rpc: set epoch on " + slowDead + ": ", func() error { return dead.SetEpoch(ctx, "f", 3, false) }},
		{"remove store", "rpc: remove store on " + slowDead + ": ", func() error { return dead.RemoveStore(ctx, "f") }},
	} {
		err := step.call()
		if err == nil || !strings.HasPrefix(err.Error(), step.want) || strings.Contains(err.Error(), fastDead) {
			t.Errorf("%s with two daemons down: error %v, want it to start %q", step.name, err, step.want)
		}
	}
}
