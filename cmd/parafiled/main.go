// Command parafiled is the parafile I/O-node daemon: it hosts subfile
// stores behind the internal/rpc wire protocol, so compute-node
// clients (clusterfsdemo -remote, or any clusterfile.Cluster with an
// rpc transport) can drive view-based scatter/gather writes, reads and
// redistributions over real TCP.
//
// Usage:
//
//	parafiled [-listen 127.0.0.1:7070] [-data-dir DIR]
//	          [-metrics-addr host:port] [-max-frame-mb 64]
//	          [-drain-timeout 10s] [-fault SPEC] [-fault-seed N]
//	          [-node NAME] [-trace] [-slow-op DUR]
//	          [-qos] [-qos-inflight N] [-qos-queue N] [-qos-mem-mb N]
//	          [-qos-wait DUR] [-qos-rate-mb F] [-qos-ops F]
//	          [-qos-tenants SPEC]
//
// With -data-dir each subfile is a real file under the directory (the
// original Clusterfile I/O nodes' local disks); without it subfiles
// live in the daemon's memory. -fault degrades the daemon on purpose
// with a deterministic connection-fault plan (see internal/fault), e.g.
// -fault error:0.01,delay:5ms — every accepted connection then fails
// reads/writes with probability 0.01 and delays each operation by 5ms,
// which is how the CI fault matrix and demos exercise partial-failure
// handling without test-only hooks. SIGTERM or SIGINT drains gracefully:
// the listener closes, in-flight requests finish (bounded by
// -drain-timeout), and every store is synced and closed before exit.
//
// Tracing is on by default (-trace=false turns it off): requests whose
// frame header carries a trace ID get server-side spans returned on
// the reply,
// -metrics-addr additionally serves /debug/trace and /debug/pprof/,
// -node labels this daemon's spans and structured log lines (default:
// the bound listen address), and -slow-op 50ms warns about any request
// slower than 50ms with its trace ID. `parafilectl top` and
// `parafilectl trace` read the /debug/trace endpoint.
//
// -qos turns on admission control: data-plane requests are bounded by
// -qos-inflight concurrent executions, -qos-mem-mb of in-flight
// request memory and a fair-share queue of -qos-queue waiters (shed
// oldest-write-first when it overflows, or after -qos-wait in queue),
// while control-plane requests (pings, stats, epoch fencing, metadata)
// bypass the queue so the cluster stays steerable under overload.
// -qos-rate-mb / -qos-ops set the default per-tenant token-bucket
// quotas (0 = unlimited) and -qos-tenants names per-tenant overrides
// with the internal/qos grammar name:weight[:mbps[:ops]], e.g.
// -qos-tenants gold:4,bulk:1:8. Shed requests answer with a typed
// overloaded error carrying a retry-after hint; clients back off
// without tripping circuit breakers. -metrics-addr then also serves
// /debug/qos (text, ?format=json) — `parafilectl qos` reads it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parafile/internal/fault"
	"parafile/internal/obs"
	"parafile/internal/qos"
	"parafile/internal/rpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parafiled: ")
	listen := flag.String("listen", "127.0.0.1:7070", "TCP address to serve the I/O-node protocol on (:0 picks a free port)")
	dataDir := flag.String("data-dir", "", "store subfiles as real files in this directory (default: in-memory)")
	metricsAddr := flag.String("metrics-addr", "", "serve the RPC metrics over HTTP on this address (/metrics, /metrics.json, /report)")
	maxFrameMB := flag.Int64("max-frame-mb", 64, "maximum accepted frame size in MiB")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	faultSpec := flag.String("fault", "", "inject connection faults, e.g. error:0.01,delay:5ms (kinds: error, error-once, delay, corrupt, failafter)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault schedules (reproducible runs)")
	nodeName := flag.String("node", "", "node label stamped on this daemon's trace spans and log lines (default: the listen address)")
	trace := flag.Bool("trace", true, "record server-side spans for requests that carry a trace ID and return them to the caller")
	slowOp := flag.Duration("slow-op", 0, "log a structured warning for server requests slower than this (0 disables)")
	qosOn := flag.Bool("qos", false, "enable admission control and fair-share scheduling on the data plane")
	qosInflight := flag.Int("qos-inflight", 0, "max concurrently executing data-plane requests (0 = default 256)")
	qosQueue := flag.Int("qos-queue", 0, "max queued data-plane requests before shedding (0 = default 4x inflight)")
	qosMemMB := flag.Int64("qos-mem-mb", 0, "in-flight request memory budget in MiB (0 = default 256)")
	qosWait := flag.Duration("qos-wait", 0, "max queue residence before a request is shed (0 = default 1s)")
	qosRateMB := flag.Float64("qos-rate-mb", 0, "default per-tenant byte quota in MiB/s (0 = unlimited)")
	qosOps := flag.Float64("qos-ops", 0, "default per-tenant operation quota per second (0 = unlimited)")
	qosTenants := flag.String("qos-tenants", "", "per-tenant overrides, e.g. gold:4,bulk:1:8 (name:weight[:mbps[:ops]])")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *maxFrameMB < 1 {
		log.Fatalf("-max-frame-mb %d must be at least 1", *maxFrameMB)
	}

	reg := obs.NewRegistry()

	var limiter *qos.Limiter
	if *qosOn {
		tenants, err := qos.ParseTenants(*qosTenants)
		if err != nil {
			log.Fatal(err)
		}
		limiter = qos.NewLimiter(qos.Config{
			MaxInFlight: *qosInflight,
			MaxQueue:    *qosQueue,
			MemoryBytes: *qosMemMB << 20,
			MaxWait:     *qosWait,
			DefaultLimit: qos.TenantLimit{
				Weight:      1,
				BytesPerSec: *qosRateMB * (1 << 20),
				OpsPerSec:   *qosOps,
			},
			Tenants: tenants,
			Metrics: reg,
		})
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	node := *nodeName
	if node == "" {
		node = ln.Addr().String()
	}
	var tracer *obs.Tracer
	var slogger *slog.Logger
	if *trace {
		tracer = obs.NewTracer(node, 64)
		slogger = obs.NewLogger(os.Stderr, node)
	}
	srv := rpc.NewServer(rpc.ServerConfig{
		DataDir:  *dataDir,
		MaxFrame: *maxFrameMB << 20,
		Metrics:  reg,
		Trace:    *trace,
		Node:     node,
		Tracer:   tracer,
		Log:      slogger,
		SlowOp:   *slowOp,
		QoS:      limiter,
	})
	if *faultSpec != "" {
		plan, err := fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatal(err)
		}
		ln = fault.NewInjector(plan, reg).WrapListener(ln)
		fmt.Fprintf(os.Stderr, "parafiled: FAULT INJECTION ACTIVE (%s, seed %d)\n", *faultSpec, *faultSeed)
	}
	where := "in-memory subfiles"
	if *dataDir != "" {
		where = "subfiles under " + *dataDir
	}
	fmt.Fprintf(os.Stderr, "parafiled: listening on %s (%s)\n", ln.Addr(), where)

	var metricsShutdown func(context.Context) error
	if *metricsAddr != "" {
		var extra []obs.DebugEndpoint
		if limiter != nil {
			extra = append(extra, obs.DebugEndpoint{
				Path: "/debug/qos",
				JSON: func() any { return limiter.Status() },
				Text: func() string { return limiter.Status().Format() },
			})
		}
		addr, shutdown, err := obs.ServeWith(*metricsAddr, reg, tracer, extra...)
		if err != nil {
			log.Fatal(err)
		}
		metricsShutdown = shutdown
		fmt.Fprintf(os.Stderr, "parafiled: serving metrics on http://%s/metrics (also /metrics.json, /report)\n", addr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "parafiled: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// A failed drain means data may not have reached the stores
		// (Sync/Close errors surface here) — that must flip the exit
		// code, not vanish into the log.
		failed := false
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
			failed = true
		}
		if metricsShutdown != nil {
			if err := metricsShutdown(ctx); err != nil {
				log.Printf("metrics shutdown: %v", err)
				failed = true
			}
		}
		<-serveErr
		if failed {
			log.Fatal("drain failed")
		}
		fmt.Fprintln(os.Stderr, "parafiled: drained, bye")
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	}
}
