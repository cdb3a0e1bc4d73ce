// Package qos protects a daemon from overload. It sits at the top of
// the request path and decides, per request, whether to admit, queue,
// or shed:
//
//  1. admission control — a bounded in-flight request count and a
//     global payload-memory budget cap what the daemon works on at
//     once, so queueing happens in one explicit place instead of as
//     unbounded goroutines and frame buffers;
//  2. weighted fair share — requests that cannot run immediately wait
//     in per-tenant FIFO queues drained by virtual-time (stride)
//     scheduling, cost = bytes/weight, so one hot tenant saturating
//     the daemon cannot starve the rest;
//  3. token-bucket quotas — per-tenant byte/sec and op/sec budgets
//     checked at arrival; a request over quota is refused immediately
//     with a RetryAfter telling the client when the bucket will cover
//     it;
//  4. load shedding — a full queue drops the oldest queued write
//     first (its client has waited longest and is the most likely to
//     have given up), and a request that queues past MaxWait is shed
//     where it stands. Control-plane operations (OpControl) bypass
//     all of it, so pings, stats, epoch fencing and metadata traffic
//     survive data-plane overload.
//
// Every refusal is a typed *Overload carrying a RetryAfter hint and
// matching the ErrOverloaded sentinel via errors.Is, so callers can
// treat shed work as backpressure — retry later — rather than as node
// failure. A nil *Limiter admits everything, which is how the rpc
// layer runs when qos is not configured.
package qos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"parafile/internal/obs"
)

// ErrOverloaded is the sentinel callers match with errors.Is to detect
// a shed/refused request anywhere in a wrapped chain (including a
// RemoteError that travelled over the wire, or an outcome inside a
// clusterfile.PartialError).
var ErrOverloaded = errors.New("qos: overloaded")

// Overload is the typed refusal. RetryAfter is the limiter's estimate
// of when a retry is worth attempting: the token-bucket deficit for
// quota refusals, the queue-residence bound for queue sheds.
type Overload struct {
	RetryAfter time.Duration
	// Reason is the refusal class: "queue_full", "timeout",
	// "quota_bytes", "quota_ops", or "injected" (fault harness).
	Reason string
}

func (e *Overload) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("qos: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("qos: overloaded (%s)", e.Reason)
}

// Is lets errors.Is match the sentinel through any wrapping.
func (e *Overload) Is(target error) bool { return target == ErrOverloaded }

// Op classifies a request for admission.
type Op int

const (
	// OpWrite is a payload-bearing data-plane write. Writes are the
	// first to shed: a dropped write is retried whole by the client
	// (never torn — it was refused before touching storage).
	OpWrite Op = iota
	// OpRead is a data-plane read.
	OpRead
	// OpControl is small control-plane work: pings (breaker probes),
	// stats, hellos, epoch fencing, metadata RPCs. Control ops bypass
	// quotas and queueing entirely so the control plane — and a
	// rebalance's fence protocol — keep working while the data plane
	// sheds.
	OpControl
)

func (op Op) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpControl:
		return "control"
	}
	return "unknown"
}

// DefaultTenant is the fair-share key for connections whose client
// set no tenant.
const DefaultTenant = "default"

// TenantLimit is one tenant's share and quota.
type TenantLimit struct {
	// Weight is the fair-share weight (default 1). A tenant with
	// weight 2 drains its queue twice as fast as a weight-1 tenant
	// under contention.
	Weight float64
	// BytesPerSec refills the byte token bucket; 0 means unlimited.
	BytesPerSec float64
	// OpsPerSec refills the op token bucket; 0 means unlimited.
	OpsPerSec float64
	// BurstBytes caps the byte bucket (default: one second of refill).
	BurstBytes float64
	// BurstOps caps the op bucket (default: one second of refill).
	BurstOps float64
}

func (tl TenantLimit) withDefaults() TenantLimit {
	if tl.Weight <= 0 {
		tl.Weight = 1
	}
	if tl.BurstBytes <= 0 {
		tl.BurstBytes = tl.BytesPerSec
	}
	if tl.BurstOps <= 0 {
		tl.BurstOps = tl.OpsPerSec
	}
	return tl
}

// Config sizes a Limiter.
type Config struct {
	// MaxInFlight bounds concurrently admitted data requests
	// (default 256).
	MaxInFlight int
	// MaxQueue bounds waiters across all tenant queues (default
	// 4*MaxInFlight). An arrival into a full queue sheds the oldest
	// queued write to make room; if nothing can be shed, the arrival
	// itself is refused.
	MaxQueue int
	// MemoryBytes is the global payload budget charged per admitted
	// request (default 256 MiB). A request larger than the whole
	// budget is clamped to it, so it can still run — alone.
	MemoryBytes int64
	// MaxWait bounds queue residence (default 1s): a request that has
	// not been dispatched by then is shed where it stands.
	MaxWait time.Duration
	// DefaultLimit applies to tenants absent from Tenants (weight 1,
	// no quotas when zero).
	DefaultLimit TenantLimit
	// Tenants maps tenant name to its share and quota.
	Tenants map[string]TenantLimit
	// Metrics receives the parafile_qos_* series; nil records nothing.
	Metrics *obs.Registry

	// now is the test clock hook (nil: time.Now).
	now func() time.Time
}

// Metric names exported by the limiter.
const (
	// MetricAdmitted counts admitted requests:
	// parafile_qos_admitted_total{op}.
	MetricAdmitted = "parafile_qos_admitted_total"
	// MetricShed counts refusals: parafile_qos_shed_total{reason}.
	MetricShed = "parafile_qos_shed_total"
	// MetricInFlight gauges admitted-and-running data requests.
	MetricInFlight = "parafile_qos_inflight"
	// MetricQueued gauges waiters across all tenant queues.
	MetricQueued = "parafile_qos_queued"
	// MetricMemory gauges the charged payload bytes.
	MetricMemory = "parafile_qos_mem_bytes"
	// MetricWait is the queue-residence histogram (ns) of admitted
	// requests that had to wait.
	MetricWait = "parafile_qos_queue_wait_ns"
)

// waiter is one queued request.
type waiter struct {
	tn    *tenant
	op    Op
	bytes int64
	need  int64 // memory charge (bytes clamped to the budget)
	enq   time.Time
	// ready delivers the verdict: nil to run, *Overload when shed.
	// Buffered so dispatch never blocks on a racing timeout.
	ready    chan error
	admitted bool
	shed     bool
}

// tenant is one fair-share class.
type tenant struct {
	name string
	lim  TenantLimit
	// pass is the stride-scheduling virtual finish time; the runnable
	// tenant with the smallest pass dispatches next.
	pass  float64
	queue []*waiter // FIFO

	byteTokens float64
	opTokens   float64
	lastFill   time.Time

	inflight    int
	admitted    uint64
	shed        uint64
	quotaDenied uint64
}

// refill tops the token buckets up to now.
func (t *tenant) refill(now time.Time) {
	dt := now.Sub(t.lastFill).Seconds()
	if dt <= 0 {
		return
	}
	t.lastFill = now
	if t.lim.BytesPerSec > 0 {
		t.byteTokens += dt * t.lim.BytesPerSec
		if t.byteTokens > t.lim.BurstBytes {
			t.byteTokens = t.lim.BurstBytes
		}
	}
	if t.lim.OpsPerSec > 0 {
		t.opTokens += dt * t.lim.OpsPerSec
		if t.opTokens > t.lim.BurstOps {
			t.opTokens = t.lim.BurstOps
		}
	}
}

// Limiter is the per-daemon admission controller. All methods are safe
// for concurrent use; a nil *Limiter admits everything.
type Limiter struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	// inflight/memUsed are the admitted-work footprint; queued counts
	// waiters across every tenant queue.
	inflight int
	memUsed  int64
	queued   int
	// vtime is the global virtual clock: the pass of the most recently
	// dispatched request. A tenant waking from idle starts at vtime so
	// it cannot claim credit for time it was not queued.
	vtime float64

	totalAdmitted uint64
	totalShed     uint64

	metAdmit map[Op]*obs.Counter
	metShed  map[string]*obs.Counter
	gInFlt   *obs.Gauge
	gQueued  *obs.Gauge
	gMem     *obs.Gauge
	hWait    *obs.Histogram
}

// shed reasons (metric labels and Overload.Reason values).
const (
	ReasonQueueFull = "queue_full"
	ReasonTimeout   = "timeout"
	ReasonQuotaB    = "quota_bytes"
	ReasonQuotaOps  = "quota_ops"
)

// NewLimiter builds a limiter. The zero Config is usable: defaults
// bound in-flight work and memory, with no per-tenant quotas.
func NewLimiter(cfg Config) *Limiter {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = 256 << 20
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = time.Second
	}
	cfg.DefaultLimit = cfg.DefaultLimit.withDefaults()
	if cfg.now == nil {
		cfg.now = time.Now
	}
	l := &Limiter{cfg: cfg, tenants: make(map[string]*tenant)}
	if reg := cfg.Metrics; reg != nil {
		l.metAdmit = map[Op]*obs.Counter{
			OpWrite:   reg.Counter(fmt.Sprintf(`%s{op="write"}`, MetricAdmitted)),
			OpRead:    reg.Counter(fmt.Sprintf(`%s{op="read"}`, MetricAdmitted)),
			OpControl: reg.Counter(fmt.Sprintf(`%s{op="control"}`, MetricAdmitted)),
		}
		l.metShed = make(map[string]*obs.Counter)
		for _, r := range []string{ReasonQueueFull, ReasonTimeout, ReasonQuotaB, ReasonQuotaOps} {
			l.metShed[r] = reg.Counter(fmt.Sprintf(`%s{reason="%s"}`, MetricShed, r))
		}
		l.gInFlt = reg.Gauge(MetricInFlight)
		l.gQueued = reg.Gauge(MetricQueued)
		l.gMem = reg.Gauge(MetricMemory)
		l.hWait = reg.Histogram(MetricWait, obs.LatencyBuckets())
	}
	return l
}

// tenantLocked returns (creating on first sight) the tenant record.
func (l *Limiter) tenantLocked(name string) *tenant {
	if name == "" {
		name = DefaultTenant
	}
	t := l.tenants[name]
	if t == nil {
		lim, ok := l.cfg.Tenants[name]
		if !ok {
			lim = l.cfg.DefaultLimit
		}
		lim = lim.withDefaults()
		t = &tenant{name: name, lim: lim, pass: l.vtime, lastFill: l.cfg.now()}
		if lim.BytesPerSec > 0 {
			t.byteTokens = lim.BurstBytes
		}
		if lim.OpsPerSec > 0 {
			t.opTokens = lim.BurstOps
		}
		l.tenants[name] = t
	}
	return t
}

// cost is the fair-share charge of one request: its payload plus a
// fixed per-op floor so metadata-sized requests still advance the
// virtual clock.
func cost(bytes int64) float64 {
	const opFloor = 4096
	if bytes < opFloor {
		return opFloor
	}
	return float64(bytes)
}

// Acquire admits, queues, or sheds one request of the given tenant.
// On admission it returns a release func the caller MUST invoke when
// the request finishes (freeing its slot and memory charge and waking
// queued work). On refusal it returns a *Overload matching
// ErrOverloaded; on caller cancellation, ctx.Err().
func (l *Limiter) Acquire(ctx context.Context, tenantName string, op Op, bytes int64) (func(), error) {
	if l == nil {
		return func() {}, nil
	}
	if bytes < 0 {
		// A malformed request can announce a negative size; debiting it
		// would CREDIT the tenant's byte bucket. Charge it as zero-size
		// — the rpc layer rejects it right after admission anyway.
		bytes = 0
	}
	l.mu.Lock()
	t := l.tenantLocked(tenantName)
	if op == OpControl {
		// Control plane: always admitted, never queued, never charged.
		// This is what keeps breaker probes, epoch fencing and
		// metadata RPCs alive while the data plane sheds.
		t.admitted++
		l.totalAdmitted++
		l.mu.Unlock()
		l.metAdmit[op].Inc()
		return func() {}, nil
	}

	now := l.cfg.now()
	if err := l.chargeQuotaLocked(t, now, bytes); err != nil {
		l.mu.Unlock()
		return nil, err
	}

	need := bytes
	if need > l.cfg.MemoryBytes {
		need = l.cfg.MemoryBytes
	}
	if l.queued == 0 && l.inflight < l.cfg.MaxInFlight && l.memUsed+need <= l.cfg.MemoryBytes {
		l.admitLocked(t, op, need, cost(bytes))
		l.mu.Unlock()
		l.metAdmit[op].Inc()
		return l.releaser(t, need), nil
	}

	// Queue. A full queue sheds the oldest queued write to make room;
	// when nothing is sheddable the arrival itself is refused.
	if l.queued >= l.cfg.MaxQueue {
		if !l.shedOldestLocked() {
			t.shed++
			l.totalShed++
			l.mu.Unlock()
			l.metShed[ReasonQueueFull].Inc()
			return nil, &Overload{RetryAfter: l.cfg.MaxWait, Reason: ReasonQueueFull}
		}
	}
	w := &waiter{tn: t, op: op, bytes: bytes, need: need, enq: now, ready: make(chan error, 1)}
	if len(t.queue) == 0 {
		// Waking from idle: no credit for idle time.
		if t.pass < l.vtime {
			t.pass = l.vtime
		}
	}
	t.queue = append(t.queue, w)
	l.queued++
	l.gQueued.Set(int64(l.queued))
	l.mu.Unlock()

	timer := time.NewTimer(l.cfg.MaxWait)
	defer timer.Stop()
	select {
	case err := <-w.ready:
		if err != nil {
			return nil, err
		}
		l.hWait.Observe(int64(l.cfg.now().Sub(w.enq)))
		l.metAdmit[op].Inc()
		return l.releaser(t, need), nil
	case <-timer.C:
		if fn, err, done := l.abandonLocked(w, ReasonTimeout); done {
			return fn, err
		}
		l.hWait.Observe(int64(l.cfg.now().Sub(w.enq)))
		l.metAdmit[op].Inc()
		return l.releaser(t, need), nil
	case <-ctx.Done():
		if fn, err, done := l.abandonLocked(w, ""); done {
			if err == nil {
				err = ctx.Err()
			}
			return fn, err
		}
		// Already admitted under us: the caller sees its own ctx
		// error soon enough; hand the slot back immediately.
		l.releaser(t, need)()
		return nil, ctx.Err()
	}
}

// abandonLocked resolves the race between a waiter giving up (timeout
// or cancellation) and dispatch admitting or shedding it. done=false
// means the waiter was admitted first and the caller owns a slot.
// reason "" (cancellation) sheds silently — the client asked to stop,
// that is not overload.
func (l *Limiter) abandonLocked(w *waiter, reason string) (func(), error, bool) {
	l.mu.Lock()
	if w.admitted {
		l.mu.Unlock()
		<-w.ready // drain the buffered verdict
		if reason == "" {
			return nil, nil, false // cancelled: caller releases
		}
		return nil, nil, false
	}
	if w.shed {
		// shedOldestLocked got here first: it already removed w from
		// its queue, decremented l.queued and counted the shed.
		// Touching the counters again would drift l.queued negative and
		// permanently fail the fast-path admission check. Just deliver
		// its verdict.
		l.mu.Unlock()
		return nil, <-w.ready, true
	}
	// Still queued: remove.
	q := w.tn.queue
	for i, qw := range q {
		if qw == w {
			w.tn.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	l.queued--
	l.gQueued.Set(int64(l.queued))
	if reason != "" {
		w.tn.shed++
		l.totalShed++
	}
	l.mu.Unlock()
	if reason == "" {
		return nil, nil, true // ctx error filled by caller
	}
	l.metShed[reason].Inc()
	return nil, &Overload{RetryAfter: l.cfg.MaxWait, Reason: reason}, true
}

// chargeQuotaLocked refills and debits t's token buckets for one
// request. A bucket that cannot cover the request refuses it with the
// deficit's refill time; tokens may go negative once a request is
// within burst, which is what holds the long-run rate exactly.
func (l *Limiter) chargeQuotaLocked(t *tenant, now time.Time, bytes int64) error {
	t.refill(now)
	if t.lim.OpsPerSec > 0 && t.opTokens < 1 {
		retry := time.Duration((1 - t.opTokens) / t.lim.OpsPerSec * float64(time.Second))
		t.quotaDenied++
		l.totalShed++
		l.metShed[ReasonQuotaOps].Inc()
		return &Overload{RetryAfter: retry, Reason: ReasonQuotaOps}
	}
	if t.lim.BytesPerSec > 0 {
		needNow := float64(bytes)
		if needNow > t.lim.BurstBytes {
			needNow = t.lim.BurstBytes
		}
		if t.byteTokens < needNow {
			retry := time.Duration((needNow - t.byteTokens) / t.lim.BytesPerSec * float64(time.Second))
			t.quotaDenied++
			l.totalShed++
			l.metShed[ReasonQuotaB].Inc()
			return &Overload{RetryAfter: retry, Reason: ReasonQuotaB}
		}
		t.byteTokens -= float64(bytes)
	}
	if t.lim.OpsPerSec > 0 {
		t.opTokens--
	}
	return nil
}

// admitLocked charges one admitted request and advances the virtual
// clock.
func (l *Limiter) admitLocked(t *tenant, op Op, need int64, c float64) {
	l.inflight++
	l.memUsed += need
	t.inflight++
	t.admitted++
	l.totalAdmitted++
	t.pass += c / t.lim.Weight
	if t.pass > l.vtime {
		l.vtime = t.pass
	}
	l.gInFlt.Set(int64(l.inflight))
	l.gMem.Set(l.memUsed)
}

// releaser returns the (idempotent-unsafe, call exactly once) release
// func of one admitted request.
func (l *Limiter) releaser(t *tenant, need int64) func() {
	return func() {
		l.mu.Lock()
		l.inflight--
		l.memUsed -= need
		t.inflight--
		l.gInFlt.Set(int64(l.inflight))
		l.gMem.Set(l.memUsed)
		l.dispatchLocked()
		l.mu.Unlock()
	}
}

// dispatchLocked drains queues while capacity lasts: repeatedly admit
// the head of the runnable tenant with the smallest virtual pass.
func (l *Limiter) dispatchLocked() {
	for l.queued > 0 && l.inflight < l.cfg.MaxInFlight {
		var best *tenant
		for _, t := range l.tenants {
			if len(t.queue) == 0 {
				continue
			}
			if best == nil || t.pass < best.pass ||
				(t.pass == best.pass && t.name < best.name) {
				best = t
			}
		}
		if best == nil {
			return
		}
		w := best.queue[0]
		if l.memUsed+w.need > l.cfg.MemoryBytes {
			// Head-of-line memory block: wait for a release rather
			// than bypassing fairness with a smaller request.
			return
		}
		best.queue = best.queue[1:]
		l.queued--
		l.gQueued.Set(int64(l.queued))
		w.admitted = true
		l.admitLocked(best, w.op, w.need, cost(w.bytes))
		w.ready <- nil
	}
}

// shedOldestLocked drops the oldest queued write (or, with no writes
// queued, the oldest waiter of any kind) to make room. Returns false
// when every queue is empty.
func (l *Limiter) shedOldestLocked() bool {
	var victim *waiter
	writeOnly := true
	for pass := 0; pass < 2 && victim == nil; pass++ {
		for _, t := range l.tenants {
			for _, w := range t.queue {
				if writeOnly && w.op != OpWrite {
					continue
				}
				if victim == nil || w.enq.Before(victim.enq) {
					victim = w
				}
			}
		}
		writeOnly = false
	}
	if victim == nil {
		return false
	}
	q := victim.tn.queue
	for i, w := range q {
		if w == victim {
			victim.tn.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	l.queued--
	l.gQueued.Set(int64(l.queued))
	victim.shed = true
	victim.tn.shed++
	l.totalShed++
	l.metShed[ReasonQueueFull].Inc()
	victim.ready <- &Overload{RetryAfter: l.cfg.MaxWait, Reason: ReasonQueueFull}
	return true
}

// TenantStatus is one tenant's live snapshot.
type TenantStatus struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	Queued      int     `json:"queued"`
	InFlight    int     `json:"in_flight"`
	Admitted    uint64  `json:"admitted"`
	Shed        uint64  `json:"shed"`
	QuotaDenied uint64  `json:"quota_denied"`
}

// Status is the limiter's live snapshot, served on /debug/qos and by
// `parafilectl qos`.
type Status struct {
	MaxInFlight int            `json:"max_in_flight"`
	InFlight    int            `json:"in_flight"`
	MaxQueue    int            `json:"max_queue"`
	Queued      int            `json:"queued"`
	MemoryBytes int64          `json:"memory_bytes"`
	MemoryUsed  int64          `json:"memory_used"`
	MaxWaitMS   int64          `json:"max_wait_ms"`
	Admitted    uint64         `json:"admitted"`
	Shed        uint64         `json:"shed"`
	Tenants     []TenantStatus `json:"tenants"`
}

// Status snapshots the limiter. Works on a nil limiter (reports an
// unconfigured, admit-everything state).
func (l *Limiter) Status() *Status {
	if l == nil {
		return &Status{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Status{
		MaxInFlight: l.cfg.MaxInFlight,
		InFlight:    l.inflight,
		MaxQueue:    l.cfg.MaxQueue,
		Queued:      l.queued,
		MemoryBytes: l.cfg.MemoryBytes,
		MemoryUsed:  l.memUsed,
		MaxWaitMS:   l.cfg.MaxWait.Milliseconds(),
		Admitted:    l.totalAdmitted,
		Shed:        l.totalShed,
	}
	for _, t := range l.tenants {
		s.Tenants = append(s.Tenants, TenantStatus{
			Name:        t.name,
			Weight:      t.lim.Weight,
			BytesPerSec: t.lim.BytesPerSec,
			OpsPerSec:   t.lim.OpsPerSec,
			Queued:      len(t.queue),
			InFlight:    t.inflight,
			Admitted:    t.admitted,
			Shed:        t.shed,
			QuotaDenied: t.quotaDenied,
		})
	}
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].Name < s.Tenants[j].Name })
	return s
}

// Format renders the snapshot as the human table parafilectl prints.
func (s *Status) Format() string {
	var b strings.Builder
	if s.MaxInFlight == 0 {
		b.WriteString("qos: not configured (admitting everything)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "qos: in-flight %d/%d  queued %d/%d  mem %s/%s  admitted %d  shed %d\n",
		s.InFlight, s.MaxInFlight, s.Queued, s.MaxQueue,
		fmtBytes(s.MemoryUsed), fmtBytes(s.MemoryBytes), s.Admitted, s.Shed)
	if len(s.Tenants) > 0 {
		fmt.Fprintf(&b, "%-16s %6s %12s %10s %7s %8s %10s %10s %8s\n",
			"TENANT", "WEIGHT", "BYTES/S", "OPS/S", "QUEUED", "INFLIGHT", "ADMITTED", "SHED", "QUOTA-")
		for _, t := range s.Tenants {
			bps, ops := "-", "-"
			if t.BytesPerSec > 0 {
				bps = fmtBytes(int64(t.BytesPerSec))
			}
			if t.OpsPerSec > 0 {
				ops = fmt.Sprintf("%.0f", t.OpsPerSec)
			}
			fmt.Fprintf(&b, "%-16s %6.1f %12s %10s %7d %8d %10d %10d %8d\n",
				t.Name, t.Weight, bps, ops, t.Queued, t.InFlight, t.Admitted, t.Shed, t.QuotaDenied)
		}
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
