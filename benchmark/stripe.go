package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"parafile/internal/meta"
)

// stripe.go is the stripe_rw workload: large contiguous extents on
// meta.FS files, the bypass workload for gather/scatter optimisations.

const (
	stripeFileBytes = 128 * mib // per client; the clients' files total ≥ 4× the 54 MiB LLC
	stripeOpBytes   = 8 * mib   // 32 stripes of 256 KiB
	stripeSlots     = stripeFileBytes / stripeOpBytes
	// slotSkew shifts the window each slot writes from the shared random
	// pool, so every slot holds different bytes without a pool per slot.
	slotSkew = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stripeApp is one client goroutine: its own metadata client, file and
// payload pool.
type stripeApp struct {
	fs    *meta.FS
	f     *meta.File
	pool  []byte
	order []int // seed-shuffled slot order
	crc   [stripeSlots]uint32
	buf   []byte
}

type stripeSession struct {
	e    env
	apps []*stripeApp
}

func openStripe(e env) (session, error) {
	s := &stripeSession{e: e}
	for c := 0; c < clients(); c++ {
		if err := s.openApp(c); err != nil {
			s.close(e.ctx)
			return nil, err
		}
	}
	return s, nil
}

func (s *stripeSession) openApp(c int) error {
	app := &stripeApp{
		fs:    s.e.dialMeta(c),
		pool:  s.e.randomBytes(c, 2, stripeOpBytes+stripeSlots*slotSkew),
		order: s.e.rng(c, 3).Perm(stripeSlots),
		buf:   make([]byte, stripeOpBytes),
	}
	s.apps = append(s.apps, app)
	for slot := range app.crc {
		app.crc[slot] = crc32.Checksum(app.payload(slot), castagnoli)
	}
	var err error
	name := fmt.Sprintf("stripe-%s-c%d", s.e.tag, c)
	if app.f, err = app.fs.Create(s.e.ctx, name, stripeBytes, replication); err != nil {
		return err
	}
	// Fill the file up front, so the timed window is the steady state:
	// no op extends the file (no MetaExtend on the data path) and none is
	// the first touch of its pages, which costs about three times a
	// rewrite here and would make throughput depend on the window length.
	for slot := 0; slot < stripeSlots; slot++ {
		if err := app.f.WriteAt(s.e.ctx, app.payload(slot), int64(slot)*stripeOpBytes); err != nil {
			return err
		}
	}
	return nil
}

func (a *stripeApp) payload(slot int) []byte {
	return a.pool[slot*slotSkew:][:stripeOpBytes]
}

func (s *stripeSession) phases() [2]phase {
	return [2]phase{
		{name: "write8m", clients: len(s.apps), opBytes: stripeOpBytes, op: s.writeOp},
		{name: "read8m", clients: len(s.apps), opBytes: stripeOpBytes, op: s.readOp},
	}
}

func (s *stripeSession) writeOp(ctx context.Context, c, i int) (time.Duration, error) {
	app := s.apps[c]
	slot := app.order[i%stripeSlots]
	t0 := time.Now()
	err := app.f.WriteAt(ctx, app.payload(slot), int64(slot)*stripeOpBytes)
	return time.Since(t0), err
}

// readOp reads back one slot and checks its CRC32C.
func (s *stripeSession) readOp(ctx context.Context, c, i int) (time.Duration, error) {
	app := s.apps[c]
	slot := app.order[i%stripeSlots]
	t0 := time.Now()
	if err := app.f.ReadAt(ctx, app.buf, int64(slot)*stripeOpBytes); err != nil {
		return 0, err
	}
	if got := crc32.Checksum(app.buf, castagnoli); got != app.crc[slot] {
		return 0, fmt.Errorf("%w: slot %d read back with CRC32C %08x, wrote %08x", errMismatch, slot, got, app.crc[slot])
	}
	return time.Since(t0), nil
}

func (s *stripeSession) verify(ctx context.Context) error {
	for _, app := range s.apps {
		mf, err := app.fs.Stat(ctx, app.f.Name())
		if err != nil {
			return err
		}
		if mf.Length != stripeFileBytes {
			return fmt.Errorf("%s is %d bytes long, want %d", mf.Name, mf.Length, stripeFileBytes)
		}
	}
	return nil
}

func (s *stripeSession) named(a, b *phaseResult) []namedValue {
	return dataNamed(a, b, stripeOpBytes, stripeOpBytes)
}

func (s *stripeSession) layer(_, _ *phaseResult) map[string]float64 { return nil }

func (s *stripeSession) liveBytes() int64 { return int64(len(s.apps)) * stripeFileBytes }

func (s *stripeSession) close(ctx context.Context) error {
	var first error
	for _, app := range s.apps {
		if app.f != nil {
			if err := removeMetaFile(ctx, app.fs, app.f); err != nil && first == nil {
				first = err
			}
			if err := app.f.Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := app.fs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
