package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opFunc runs one operation of a phase for one client and returns the
// latency that counts (usually the whole call; the rebalance op
// excludes its read-back check) or the error that failed it.
type opFunc func(ctx context.Context, client, i int) (time.Duration, error)

// phase is one half of a workload's timed window.
type phase struct {
	name    string // what the op is, e.g. "checkpoint"
	clients int    // closed-loop client goroutines
	opBytes int64  // user bytes one op moves
	op      opFunc
}

// opSample is one op that succeeded.
type opSample struct {
	client int
	start  time.Time
	lat    time.Duration
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	samples  []opSample
	clients  int
	failed   int
	firstErr error
	busy     time.Duration // Σ lat ÷ clients: wall time spent inside ops
	cpu      float64       // user+sys CPU seconds, generator plus daemons
	allocs   uint64        // generator heap allocations
	allocB   uint64        // generator heap bytes allocated
}

func (r *phaseResult) ops() int { return len(r.samples) }

// rateGroups is how many consecutive groups of ops opsPerSec takes the
// median over.
const rateGroups = 9

// opsPerSec is completed ops per second of time spent inside ops,
// clients ÷ mean latency. The mean is taken per group of consecutive
// ops and the median group reported, so that one stall (a page-cache
// writeback burst, a scheduling hiccup) moves one group and not the
// metric.
func (r *phaseResult) opsPerSec() float64 {
	n := len(r.samples)
	if n == 0 || r.busy <= 0 {
		return 0
	}
	if n < 2*rateGroups {
		return float64(n) / r.busy.Seconds()
	}
	byStart := append([]opSample(nil), r.samples...)
	sort.Slice(byStart, func(i, j int) bool { return byStart[i].start.Before(byStart[j].start) })
	rates := make([]float64, rateGroups)
	for g := range rates {
		group := byStart[g*n/rateGroups : (g+1)*n/rateGroups]
		var sum time.Duration
		for _, s := range group {
			sum += s.lat
		}
		rates[g] = float64(r.clients) * float64(len(group)) / sum.Seconds()
	}
	return median(rates)
}

// p is the q-quantile of the op latencies in milliseconds.
func (r *phaseResult) p(q float64) float64 {
	lat := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		lat[i] = s.lat
	}
	return quantileMs(lat, q)
}

// runPhase drives ph closed-loop for dur: every client issues its next
// op when the previous one returned, because the callers are ranks of
// one application waiting for their collective. It stops early when
// ctx ends (a daemon died).
func runPhase(ctx context.Context, ph phase, dur time.Duration, pids []int) phaseResult {
	res := phaseResult{clients: ph.clients}
	cpu0 := cpuSeconds(pids)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(dur)

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var samples []opSample
			var failed int
			var firstErr error
			for i := 0; ctx.Err() == nil; i++ {
				start := time.Now()
				if !start.Before(deadline) {
					break
				}
				d, err := ph.op(ctx, c, i)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("%s client %d op %d: %w", ph.name, c, i, err)
					}
					continue
				}
				samples = append(samples, opSample{c, start, d})
			}
			mu.Lock()
			res.samples = append(res.samples, samples...)
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.allocs = ms1.Mallocs - ms0.Mallocs
	res.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	res.cpu = cpuSeconds(pids) - cpu0
	var sum time.Duration
	for _, s := range res.samples {
		sum += s.lat
	}
	res.busy = sum / time.Duration(ph.clients)
	return res
}

// warmUp runs n untimed ops per client so caches fill, connections
// dial and projections register before the window opens.
func warmUp(ctx context.Context, ph phase, n int) error {
	errs := make(chan error, ph.clients)
	for c := 0; c < ph.clients; c++ {
		go func(c int) {
			for i := 0; i < n; i++ {
				if _, err := ph.op(ctx, c, i); err != nil {
					errs <- fmt.Errorf("warm-up %s client %d: %w", ph.name, c, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < ph.clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// quantileMs is the q-quantile of ds in milliseconds (nearest rank).
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in it. It
// is 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuSeconds sums user+system CPU time of this process and pids from
// /proc/<pid>/stat. A pid that already exited contributes nothing.
func cpuSeconds(pids []int) float64 {
	total := procCPU("self")
	for _, pid := range pids {
		total += procCPU(strconv.Itoa(pid))
	}
	return total
}

func procCPU(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are fixed: utime and stime are the 12th and
	// 13th of them.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTick
}
