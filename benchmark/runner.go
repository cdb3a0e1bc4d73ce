package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"parafile/internal/clusterfile"
	"parafile/internal/rpc"
)

const (
	// setupRepeats is how many times a run sets the workload up from
	// nothing; setup_s is the median, the last set-up is the one timed
	// ops run against.
	setupRepeats = 3
	shortWindow  = time.Second
	warmUpOps    = 2 // untimed ops per client and phase before a window
)

// errMismatch marks an op that completed but returned wrong bytes; it
// makes the run incorrect, where a shed or timed-out op only fails.
var errMismatch = errors.New("output mismatch")

type runOptions struct {
	seed             int64
	window           time.Duration // timed window of one pass (both phases)
	setups           int
	untraced, traced bool // which metric sets to report
	bins             binaries
	tmp              string // directory for the daemons' data dirs
}

// pass is one timed window of a session: both phases and the check of
// the final state.
type pass struct {
	sess session
	a, b phaseResult
}

// openSession sets a workload up against a running topology and warms
// it: when it returns, the next op is the first timed op.
func openSession(e env, def workloadDef) (session, error) {
	sess, err := def.open(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for _, ph := range sess.phases() {
		if err := warmUp(e.ctx, ph, warmUpOps); err != nil {
			sess.close(e.ctx)
			return nil, err
		}
	}
	return sess, nil
}

// timePass runs the two phases for dur each and verifies the result.
func timePass(e env, sess session, dur time.Duration, res *result) (pass, error) {
	p := pass{sess: sess}
	pids := e.topo.pids()
	phases := sess.phases()
	p.a = runPhase(e.ctx, phases[0], dur, pids)
	p.b = runPhase(e.ctx, phases[1], dur, pids)
	if err := context.Cause(e.ctx); err != nil {
		return p, err // a daemon died: nothing measured after it counts
	}
	for _, r := range []*phaseResult{&p.a, &p.b} {
		res.Attempted += r.ops() + r.failed
		res.Failed += r.failed
		if r.firstErr != nil {
			res.fail(r.firstErr, errors.Is(r.firstErr, errMismatch))
		}
	}
	if err := sess.verify(e.ctx); err != nil {
		res.fail(fmt.Errorf("verify: %w", err), true)
	}
	return p, nil
}

// runWorkload runs one workload start to finish: repeated set-up, the
// untraced pass (end-to-end metrics), and the traced pass with probes
// and counters (per-layer metrics) on the same topology.
func runWorkload(ctx context.Context, def workloadDef, opts runOptions) (*result, error) {
	res := newResult(def.name, opts.seed)
	untracedDur, tracedDur := opts.window/2, opts.window/4
	if !opts.untraced {
		// Only the tracing overhead needs the untraced pass.
		untracedDur = opts.window / 4
		opts.setups = 1
	}

	var topo *topology
	var sess session
	var e env
	var setupS []float64
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	for i := 0; i < opts.setups; i++ {
		if topo != nil {
			if err := sess.close(e.ctx); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			topo.stop()
		}
		t0 := time.Now()
		var err error
		if topo, err = startTopology(ctx, opts.bins, opts.tmp, def.spare); err != nil {
			return nil, err
		}
		e = env{ctx: topo.ctx, topo: topo, seed: opts.seed, tag: "u"}
		if sess, err = openSession(e, def); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	mdBefore, err := scrapeAll(e.ctx, topo.md)
	if err != nil {
		return nil, err
	}
	up, err := timePass(e, sess, untracedDur, res)
	if err != nil {
		return nil, err
	}
	if opts.untraced {
		res.endToEnd(median(setupS), &up)
	}
	if err := sess.close(e.ctx); err != nil {
		return nil, fmt.Errorf("closing the untraced session: %w", err)
	}
	if !opts.traced {
		return res, nil
	}

	// The traced pass: same inputs, same topology, a fresh session whose
	// clients carry the tracer, the counting dialer and a registry.
	te := e
	te.tag, te.lt = "t", newLayerTrace()
	tsess, err := openSession(te, def)
	if err != nil {
		return nil, err
	}
	defer tsess.close(te.ctx)
	before, err := takeCounters(te)
	if err != nil {
		return nil, err
	}
	sampler := startQueueSampler(te.ctx, topo.dataProcs())
	tp, err := timePass(te, tsess, tracedDur, res)
	queuedMax := sampler.finish()
	if err != nil {
		return nil, err
	}
	after, err := takeCounters(te)
	if err != nil {
		return nil, err
	}
	mdAfter, err := scrapeAll(te.ctx, topo.md)
	if err != nil {
		return nil, err
	}
	onDisk, err := topo.bytesOnDisk()
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(opts.seed, topo.dir)
	if err == nil {
		probes["rpc.open_ms"], err = probeOpen(te)
	}
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.perLayer(layerInputs{
		untraced: &up, traced: &tp, lt: te.lt,
		before: before, after: after,
		md:        subSeries(mdAfter, mdBefore),
		queuedMax: queuedMax,
		onDisk:    onDisk,
		probes:    probes,
	})
	return res, nil
}

// counters is a snapshot of every counter source at a phase boundary.
type counters struct {
	daemons, client                            map[string]float64
	frameDiscards, msgBufDiscards              int64
	reads, writes, readB, writeB, writeBlocked int64
}

func takeCounters(e env) (counters, error) {
	var c counters
	var err error
	if c.daemons, err = scrapeAll(e.ctx, e.topo.dataProcs()); err != nil {
		return c, err
	}
	c.client = registryValues(e.lt.reg)
	c.frameDiscards = rpc.FramePoolDiscards()
	c.msgBufDiscards = clusterfile.MsgBufDiscards()
	st := &e.lt.conn
	c.reads, c.writes = st.reads.Load(), st.writes.Load()
	c.readB, c.writeB = st.readBytes.Load(), st.writeBytes.Load()
	c.writeBlocked = st.writeNs.Load()
	return c, nil
}

// minus is the change from o to c.
func (c counters) minus(o counters) counters {
	return counters{
		daemons:        subSeries(c.daemons, o.daemons),
		client:         subSeries(c.client, o.client),
		frameDiscards:  c.frameDiscards - o.frameDiscards,
		msgBufDiscards: c.msgBufDiscards - o.msgBufDiscards,
		reads:          c.reads - o.reads,
		writes:         c.writes - o.writes,
		readB:          c.readB - o.readB,
		writeB:         c.writeB - o.writeB,
		writeBlocked:   c.writeBlocked - o.writeBlocked,
	}
}

func subSeries(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// bytesOnDisk sums the apparent sizes of the regular files in the data
// daemons' directories.
func (t *topology) bytesOnDisk() (int64, error) {
	var total int64
	for i := range t.dataProcs() {
		err := filepath.WalkDir(t.dataDir(i), func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					return nil // a store removed while we walked, or a daemon that stored nothing
				}
				return err
			}
			if d.Type().IsRegular() {
				if info, err := d.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// pids of every daemon, for CPU accounting.
func (t *topology) pids() []int {
	var pids []int
	for _, p := range t.procs() {
		pids = append(pids, p.cmd.Process.Pid)
	}
	return pids
}

// dataProcs are the data daemons, spare included.
func (t *topology) dataProcs() []*proc {
	if t.spare == nil {
		return t.data
	}
	return append(append([]*proc(nil), t.data...), t.spare)
}
