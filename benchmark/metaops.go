package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parafile/internal/meta"
)

// metaops.go is the meta_ops workload: small appends, overwrites and
// lookups on a fixed set of files. The set is fixed because fs.Remove
// leaves the daemons' stores (and their fds) to garbage collection: a
// create/remove churn loop runs the daemons out of file descriptors.

const (
	metaFiles   = 16 // over all clients
	metaOpBytes = 4096
	openEvery   = 8 // every 8th lookup cycle also opens and closes the file

	// A step that errors is issued again, as an application would: up to
	// stepTries attempts, retryBackoff (doubling) apart. meta.Group now
	// and then refuses a commit with "no quorum" while both followers
	// wait for a snapshot repair (README, First reading): about one
	// append4k in 60 000 with one committer. Every step is idempotent, a
	// refused extend included, and every retry is counted and reported
	// (meta.op_retries), so the fault stays visible without making two
	// runs of the same code disagree on how many operations failed.
	stepTries    = 4
	retryBackoff = 10 * time.Millisecond
)

// metaApp is one client goroutine: its metadata client and the files
// it alone appends to, so every file's length is known exactly.
type metaApp struct {
	fs      *meta.FS
	files   []*meta.File
	appends []int // 4 KiB blocks appended to files[k]
	payload []byte
}

type metaSession struct {
	e    env
	apps []*metaApp

	retried atomic.Int64 // steps issued again after an error

	mu                    sync.Mutex
	overwrite, stat, open []time.Duration
}

// try runs step until it succeeds, stepTries times at most.
func (s *metaSession) try(ctx context.Context, step func() error) error {
	var err error
	for n := 0; n < stepTries; n++ {
		if n > 0 {
			s.retried.Add(1)
			select {
			case <-time.After(retryBackoff << (n - 1)):
			case <-ctx.Done():
				return err
			}
		}
		if err = step(); err == nil {
			return nil
		}
	}
	return err
}

func openMetaOps(e env) (session, error) {
	s := &metaSession{e: e}
	for c := 0; c < clients(); c++ {
		if err := s.openApp(c); err != nil {
			s.close(e.ctx)
			return nil, err
		}
	}
	return s, nil
}

func (s *metaSession) openApp(c int) error {
	app := &metaApp{fs: s.e.dialMeta(c), payload: s.e.randomBytes(c, 6, metaOpBytes)}
	s.apps = append(s.apps, app)
	for k := 0; k < metaFiles/clients(); k++ {
		name := fmt.Sprintf("meta-%s-c%d-%02d", s.e.tag, c, k)
		f, err := app.fs.Create(s.e.ctx, name, stripeBytes, replication)
		if err != nil {
			return err
		}
		app.files = append(app.files, f)
		app.appends = append(app.appends, 0)
		// One block up front, so the first overwrite has a range to hit.
		if err := s.try(s.e.ctx, func() error { return app.append(s.e.ctx, k) }); err != nil {
			return err
		}
	}
	return nil
}

// append adds one 4 KiB block at the end of files[k]: the data write
// and the quorum MetaExtend that acknowledges it. A failed append
// leaves the client's Length() where it was, so issuing it again writes
// the same block at the same offset.
func (a *metaApp) append(ctx context.Context, k int) error {
	f := a.files[k]
	if err := f.WriteAt(ctx, a.payload, f.Length()); err != nil {
		return err
	}
	a.appends[k]++
	return nil
}

func (s *metaSession) phases() [2]phase {
	return [2]phase{
		{name: "append4k", clients: 1, opBytes: metaOpBytes, op: s.appendOp},
		{name: "lookup", clients: len(s.apps), opBytes: metaOpBytes, op: s.lookupOp},
	}
}

func (s *metaSession) appendOp(ctx context.Context, c, i int) (time.Duration, error) {
	app := s.apps[c]
	t0 := time.Now()
	err := s.try(ctx, func() error { return app.append(ctx, i%len(app.files)) })
	return time.Since(t0), err
}

// lookupOp is one cycle of the steps that commit nothing: overwrite
// the last block (same range again, no extend), Stat, and on every 8th
// cycle Open+Close. Its latency is the cycle's; the steps are also
// timed one by one for the meta.* layer metrics.
func (s *metaSession) lookupOp(ctx context.Context, c, i int) (time.Duration, error) {
	app := s.apps[c]
	f := app.files[i%len(app.files)]
	t0 := time.Now()
	err := s.try(ctx, func() error { return f.WriteAt(ctx, app.payload, f.Length()-metaOpBytes) })
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	err = s.try(ctx, func() error { _, err := app.fs.Stat(ctx, f.Name()); return err })
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	var opened time.Duration
	if i%openEvery == openEvery-1 {
		err = s.try(ctx, func() error {
			g, err := app.fs.Open(ctx, f.Name())
			if err != nil {
				return err
			}
			return g.Close()
		})
		if err != nil {
			return 0, err
		}
		opened = time.Since(t2)
	}
	d := time.Since(t0)
	s.mu.Lock()
	s.overwrite = append(s.overwrite, t1.Sub(t0))
	s.stat = append(s.stat, t2.Sub(t1))
	if opened > 0 {
		s.open = append(s.open, opened)
	}
	s.mu.Unlock()
	return d, nil
}

// verify checks that every file is as long as its appends say, at the
// service and in the client's cached placement.
func (s *metaSession) verify(ctx context.Context) error {
	for _, app := range s.apps {
		for k, f := range app.files {
			want := int64(app.appends[k]) * metaOpBytes
			mf, err := app.fs.Stat(ctx, f.Name())
			if err != nil {
				return err
			}
			if mf.Length != want || f.Length() != want {
				return fmt.Errorf("%s: %d appends, want length %d, service says %d, client cache %d",
					f.Name(), app.appends[k], want, mf.Length, f.Length())
			}
		}
	}
	return nil
}

func (s *metaSession) named(a, b *phaseResult) []namedValue {
	// A lookup cycle is two steps, three when it opens.
	steps := float64(a.ops()) + float64(b.ops())*(2+1.0/openEvery)
	wall := a.busy + b.busy
	var rate float64
	if wall > 0 {
		rate = steps / wall.Seconds()
	}
	return []namedValue{
		{"meta_ops_per_s", rate, "1/s"},
		{"commit_p50_ms", a.p(0.5), "ms"},
		{"op_retries", float64(s.retried.Load()), "count"},
	}
}

// layer reports the control-plane step medians. An append is an
// overwrite plus the quorum MetaExtend, so the difference of their
// medians is what the extend costs.
func (s *metaSession) layer(a, _ *phaseResult) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]float64{
		"meta.open_ms":    quantileMs(s.open, 0.5),
		"meta.stat_ms":    quantileMs(s.stat, 0.5),
		"meta.extend_ms":  a.p(0.5) - quantileMs(s.overwrite, 0.5),
		"meta.op_retries": float64(s.retried.Load()),
	}
}

func (s *metaSession) liveBytes() int64 {
	var n int64
	for _, app := range s.apps {
		for _, k := range app.appends {
			n += int64(k) * metaOpBytes
		}
	}
	return n
}

func (s *metaSession) close(ctx context.Context) error {
	var first error
	for _, app := range s.apps {
		for _, f := range app.files {
			if err := removeMetaFile(ctx, app.fs, f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := app.fs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
