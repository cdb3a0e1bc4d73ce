package meta

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/rpc"
)

// clients_test.go pins the FS's client ownership: one rpc.Client per
// daemon address, shared by every file, rebind and rebalance, and
// closed only by FS.Close.

// TestFSDialsOncePerDaemon: however many files an FS creates, writes,
// reopens and rebalances, it dials each daemon it talks to exactly
// once — the data daemons plus the metadata endpoint.
func TestFSDialsOncePerDaemon(t *testing.T) {
	tc := startElasticCluster(t, 3)
	ctx := context.Background()
	reg := obs.NewRegistry()
	cl := Dial(tc.mdAddr, Options{Metrics: reg})
	defer cl.Close()
	original := tc.addrs()
	for _, addr := range original {
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}

	const files, size = 8, 3 * 4096
	want := patternBuf(0, size)
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := cl.Create(ctx, name, 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(ctx, want, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for k := 0; k < 4; k++ {
			g, err := cl.Open(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
		}
	}
	added := tc.startDaemon()
	outs, err := cl.AddNode(ctx, added)
	if err != nil || Failed(outs) != 0 {
		t.Fatalf("AddNode: %v (%d files failed)", err, Failed(outs))
	}
	outs, err = cl.DrainNode(ctx, original[0])
	if err != nil || Failed(outs) != 0 {
		t.Fatalf("DrainNode: %v (%d files failed)", err, Failed(outs))
	}

	const daemons = 3 + 1 + 1 // original, added, metadata
	if got := reg.Counter(rpc.MetricClientDials).Value(); got != daemons {
		t.Fatalf("%d connections dialed for %d files, want %d (one per daemon)", got, files, daemons)
	}
}

// TestFSSharedPacing: a RetryAfter drawn by one file closes the pace
// gate for every file of the FS on that daemon — the next data op of a
// second file is shed locally, without a wire request.
func TestFSSharedPacing(t *testing.T) {
	tc := startElasticCluster(t, 0)
	ctx := context.Background()
	// One burst op, then a refill horizon far past the test.
	lim := qos.NewLimiter(qos.Config{Tenants: map[string]qos.TenantLimit{
		"bulk": {OpsPerSec: 0.001, BurstOps: 1},
	}})
	srvReg := obs.NewRegistry()
	addr := tc.startDaemonWith(rpc.ServerConfig{QoS: lim, Metrics: srvReg})
	reg := obs.NewRegistry()
	cl := Dial(tc.mdAddr, Options{Metrics: reg, Client: rpc.ClientConfig{Tenant: "bulk", MaxRetries: -1}})
	defer cl.Close()
	if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	a, err := cl.Create(ctx, "a", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Create(ctx, "b", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := patternBuf(0, 4096)
	if err := a.WriteAt(ctx, p, 0); err != nil {
		t.Fatalf("first write of a: %v", err)
	}
	if err := a.WriteAt(ctx, p, 0); !errors.Is(err, qos.ErrOverloaded) {
		t.Fatalf("second write of a: %v, want a wire shed", err)
	}

	wire := srvReg.Counter(rpc.MetricServerRequests + `{type="write_segments"}`)
	paced := reg.Counter(rpc.MetricClientPaced)
	wireBefore, pacedBefore := wire.Value(), paced.Value()
	if err := b.WriteAt(ctx, p, 0); !errors.Is(err, qos.ErrOverloaded) {
		t.Fatalf("write of b: %v, want overloaded", err)
	}
	if got := paced.Value() - pacedBefore; got == 0 {
		t.Fatal("b's write was not paced by the RetryAfter a drew")
	}
	if got := wire.Value() - wireBefore; got != 0 {
		t.Fatalf("b's paced write sent %d wire requests, want 0", got)
	}
}

// TestFSSharedBreaker: a breaker opened by one file against a dead
// daemon fast-fails every other file of the FS on it, without a dial.
func TestFSSharedBreaker(t *testing.T) {
	tc := startElasticCluster(t, 1)
	ctx := context.Background()
	reg := obs.NewRegistry()
	cl := Dial(tc.mdAddr, Options{Metrics: reg, Client: rpc.ClientConfig{
		MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute,
	}})
	defer cl.Close()
	addr := tc.addrs()[0]
	if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
		t.Fatal(err)
	}
	p := patternBuf(0, 4096)
	var files []*File
	for _, name := range []string{"a", "b"} {
		f, err := cl.Create(ctx, name, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAt(ctx, p, 0); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	stop := tc.daemons[addr]
	delete(tc.daemons, addr)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := files[0].ReadAt(ctx, p, 0); err == nil {
		t.Fatal("read of a from a dead daemon succeeded")
	}
	dials := reg.Counter(rpc.MetricClientDials)
	before := dials.Value()
	if err := files[1].ReadAt(ctx, p, 0); !errors.Is(err, rpc.ErrBreakerOpen) {
		t.Fatalf("read of b: %v, want the breaker a opened", err)
	}
	if got := dials.Value() - before; got != 0 {
		t.Fatalf("b's fast-failed read dialed %d times, want 0", got)
	}
}

// TestFSCloseFailsOpenFiles: FS.Close closes the data clients, so a
// file left open on it fails its next operation instead of hanging or
// redialing.
func TestFSCloseFailsOpenFiles(t *testing.T) {
	tc := startElasticCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl := Dial(tc.mdAddr, Options{})
	for _, addr := range tc.addrs() {
		if _, err := cl.SetNode(ctx, addr, rpc.NodeActive); err != nil {
			t.Fatal(err)
		}
	}
	f, err := cl.Create(ctx, "f", 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := patternBuf(0, 2*4096)
	if err := f.WriteAt(ctx, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	err = f.ReadAt(ctx, p, 0)
	if err == nil {
		t.Fatal("read through a closed FS succeeded")
	}
	if ctx.Err() != nil {
		t.Fatalf("read through a closed FS hung until the deadline: %v", err)
	}
}
