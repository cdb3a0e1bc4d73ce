package rpc

import (
	"fmt"

	"parafile/internal/obs"
)

// metrics.go names and binds the RPC layer's observability series on
// both sides of the wire, following the obs conventions: binding a nil
// registry yields nil metrics whose methods are free no-ops.
const (
	// Client side: one series per request type for volume, a shared
	// latency histogram (whole call including retries), an in-flight
	// gauge, per-direction byte totals, and the failure taxonomy —
	// retries (reconnect attempts after a transport error), timeouts
	// (deadline expiries, a subset of retries), and failures (calls
	// that exhausted the retry budget).
	MetricClientRequests  = "parafile_rpc_client_requests_total"
	MetricClientRequestNs = "parafile_rpc_client_request_ns"
	MetricClientInflight  = "parafile_rpc_client_inflight"
	MetricClientSentBytes = "parafile_rpc_client_sent_bytes_total"
	MetricClientRecvBytes = "parafile_rpc_client_received_bytes_total"
	MetricClientRetries   = "parafile_rpc_client_retries_total"
	MetricClientTimeouts  = "parafile_rpc_client_timeouts_total"
	MetricClientFailures  = "parafile_rpc_client_failures_total"
	MetricClientDials     = "parafile_rpc_client_dials_total"
	// MetricClientShed counts overloaded answers (ErrCodeOverloaded):
	// backpressure the client absorbed by backing off, distinct from
	// retries (transport errors) and failures (exhausted budgets). A
	// shed answer never advances the circuit breaker.
	MetricClientShed = "parafile_rpc_client_shed_total"
	// MetricClientPaced is the subset of sheds refused locally: after a
	// shed answer with a RetryAfter hint, data-plane attempts inside the
	// hinted window are shed client-side without shipping the payload.
	MetricClientPaced = "parafile_rpc_client_paced_total"

	// Server side: the mirrored series plus connection and open-file
	// gauges and a per-code error counter.
	MetricServerRequests  = "parafile_rpc_server_requests_total"
	MetricServerRequestNs = "parafile_rpc_server_request_ns"
	MetricServerInflight  = "parafile_rpc_server_inflight"
	MetricServerRecvBytes = "parafile_rpc_server_received_bytes_total"
	MetricServerSentBytes = "parafile_rpc_server_sent_bytes_total"
	MetricServerErrors    = "parafile_rpc_server_errors_total"
	MetricServerConns     = "parafile_rpc_server_connections"
	MetricServerFiles     = "parafile_rpc_server_open_files"
	// MetricPoolDiscards is the shared buffer-pool discard series:
	// every pool's retention-cap drops surface under one name,
	// distinguished by a lowercase kind label — {kind="frame"} mirrors
	// the process-wide FramePoolDiscards counter (refreshed on the
	// server request path), {kind="msgbuf"} the clusterfile message
	// buffers. Each kind is bound exactly once, at metrics
	// construction, never at the refresh sites. Connections are not a
	// pool kind: a client holds one per daemon and closes it only with
	// Client.Close.
	MetricPoolDiscards = "parafile_pool_discards"

	// Circuit breaker (per I/O node, labelled by address): the state
	// gauge (0 closed, 1 open, 2 half-open), transitions to open,
	// half-open Ping probes, and calls fast-failed while open.
	MetricBreakerState     = "parafile_rpc_breaker_state"
	MetricBreakerOpens     = "parafile_rpc_breaker_opens_total"
	MetricBreakerProbes    = "parafile_rpc_breaker_probes_total"
	MetricBreakerFastFails = "parafile_rpc_breaker_fastfails_total"
)

// bindPerType binds one volume series per request type of the message
// table.
func bindPerType(reg *obs.Registry, name string) map[byte]*obs.Counter {
	m := make(map[byte]*obs.Counter)
	for t, spec := range msgs {
		if spec.req {
			m[byte(t)] = reg.Counter(fmt.Sprintf(`%s{type="%s"}`, name, spec.name))
		}
	}
	return m
}

type clientMetrics struct {
	requests  map[byte]*obs.Counter
	requestNs *obs.Histogram
	inflight  *obs.Gauge
	sentBytes *obs.Counter
	recvBytes *obs.Counter
	retries   *obs.Counter
	timeouts  *obs.Counter
	failures  *obs.Counter
	shed      *obs.Counter
	paced     *obs.Counter
	dials     *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		requests:  bindPerType(reg, MetricClientRequests),
		requestNs: reg.Histogram(MetricClientRequestNs, obs.LatencyBuckets()),
		inflight:  reg.Gauge(MetricClientInflight),
		sentBytes: reg.Counter(MetricClientSentBytes),
		recvBytes: reg.Counter(MetricClientRecvBytes),
		retries:   reg.Counter(MetricClientRetries),
		timeouts:  reg.Counter(MetricClientTimeouts),
		failures:  reg.Counter(MetricClientFailures),
		shed:      reg.Counter(MetricClientShed),
		paced:     reg.Counter(MetricClientPaced),
		dials:     reg.Counter(MetricClientDials),
	}
}

type serverMetrics struct {
	requests     map[byte]*obs.Counter
	requestNs    *obs.Histogram
	inflight     *obs.Gauge
	recvBytes    *obs.Counter
	sentBytes    *obs.Counter
	errors       map[uint64]*obs.Counter
	conns        *obs.Gauge
	files        *obs.Gauge
	poolDiscards *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	codes := map[uint64]string{
		ErrCodeBadRequest:        "bad_request",
		ErrCodeUnknownFile:       "unknown_file",
		ErrCodeUnknownProjection: "unknown_projection",
		ErrCodeIO:                "io",
		ErrCodeShuttingDown:      "shutting_down",
		ErrCodeStalePlacement:    "stale_placement",
		ErrCodeOverloaded:        "overloaded",
	}
	errs := make(map[uint64]*obs.Counter, len(codes))
	for code, label := range codes {
		errs[code] = reg.Counter(fmt.Sprintf(`%s{code="%s"}`, MetricServerErrors, label))
	}
	return serverMetrics{
		requests:     bindPerType(reg, MetricServerRequests),
		requestNs:    reg.Histogram(MetricServerRequestNs, obs.LatencyBuckets()),
		inflight:     reg.Gauge(MetricServerInflight),
		recvBytes:    reg.Counter(MetricServerRecvBytes),
		sentBytes:    reg.Counter(MetricServerSentBytes),
		errors:       errs,
		conns:        reg.Gauge(MetricServerConns),
		files:        reg.Gauge(MetricServerFiles),
		poolDiscards: reg.Gauge(MetricPoolDiscards + `{kind="frame"}`),
	}
}

// errCounter returns the counter of a code (nil, hence a no-op, for
// unknown codes or an unbound registry).
func (m *serverMetrics) errCounter(code uint64) *obs.Counter { return m.errors[code] }
