package redist

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"parafile/internal/core"
	"parafile/internal/falls"
	"parafile/internal/obs"
	"parafile/internal/part"
)

// plan.go turns pairwise element intersections into an executable
// redistribution plan: which source element sends which of its bytes
// to which destination element. A plan is computed once per partition
// pair and reused for any amount of data — the paper's point that the
// intersection overhead "has to be paid only at view setting and can
// be amortized over several accesses" (§8.2).
//
// Compilation is embarrassingly parallel: every (source element,
// destination element) pair's intersection, projections and triple
// walk are independent of every other pair, and the mappers they read
// are immutable after construction. CompilePlan fans the pairs out
// over a worker pool and reassembles the transfers in deterministic
// pair order, so a parallel compile yields a plan identical to the
// sequential one.

// copyTriple is one contiguous correspondence within one intersection
// period: n bytes at srcOff in the source element map to dstOff in the
// destination element.
type copyTriple struct {
	srcOff, dstOff int64
	fileOff        int64 // file-space coordinate of the run (period-relative)
	n              int64
}

// Transfer is the precomputed exchange between one source element and
// one destination element.
type Transfer struct {
	SrcElem, DstElem int
	Intersection     *Intersection
	SrcProj, DstProj *Projection

	triples []copyTriple
}

// BytesPerPeriod returns the bytes this transfer moves per
// intersection period.
func (t *Transfer) BytesPerPeriod() int64 { return t.Intersection.BytesPerPeriod() }

// Plan is the full redistribution plan between two partitions of the
// same file.
type Plan struct {
	Src, Dst  *part.File
	Period    int64 // intersection period in file bytes
	Base      int64 // absolute file offset of period coordinate 0
	Transfers []Transfer
	// Coalesced records whether the run-coalescing pass was applied
	// during compilation.
	Coalesced bool
}

// String summarizes the plan for logs and traces: transfer and run
// counts, bytes per period, the intersection geometry and the
// coalesce state.
func (p *Plan) String() string {
	if p == nil {
		return "redist.Plan(nil)"
	}
	co := "coalesced"
	if !p.Coalesced {
		co = "uncoalesced"
	}
	return fmt.Sprintf("redist.Plan{%d transfers, %d runs/period, %d B/period, period %d, base %d, %s}",
		len(p.Transfers), p.SegmentsPerPeriod(), p.BytesPerPeriod(), p.Period, p.Base, co)
}

// GoString is the %#v form: String plus the partition shapes.
func (p *Plan) GoString() string {
	if p == nil {
		return "redist.Plan(nil)"
	}
	return fmt.Sprintf("redist.Plan{src: %d elems/size %d/disp %d, dst: %d elems/size %d/disp %d, period: %d, base: %d, transfers: %d, runs/period: %d, bytes/period: %d, coalesced: %t}",
		p.Src.Pattern.Len(), p.Src.Pattern.Size(), p.Src.Displacement,
		p.Dst.Pattern.Len(), p.Dst.Pattern.Size(), p.Dst.Displacement,
		p.Period, p.Base, len(p.Transfers), p.SegmentsPerPeriod(), p.BytesPerPeriod(), p.Coalesced)
}

// CompileOptions tunes plan compilation. The zero value selects the
// defaults: one worker per GOMAXPROCS and run coalescing enabled.
type CompileOptions struct {
	// Workers is the number of goroutines compiling element pairs
	// concurrently; zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
	// NoCoalesce disables the triple-coalescing pass that merges
	// adjacent copy runs contiguous in source, destination and file
	// space. Coalesced and uncoalesced plans move byte-identical data;
	// the switch exists for ablation measurements.
	NoCoalesce bool
	// Metrics, when non-nil, receives the compile-time series of
	// metrics.go (latency histogram, pair and segment counters).
	Metrics *obs.Registry
	// Trace, when non-nil, is the parent wall-clock span; CompilePlan
	// opens a "redist.compile" child with per-phase grandchildren.
	Trace *obs.Span
}

// NewPlan intersects every source element with every destination
// element and precomputes the per-period copy runs, compiling the
// pairs in parallel over GOMAXPROCS workers.
func NewPlan(src, dst *part.File) (*Plan, error) {
	return CompilePlan(src, dst, CompileOptions{})
}

// NewPlanParallel is NewPlan with an explicit worker count for the
// pairwise compilation loop.
func NewPlanParallel(src, dst *part.File, workers int) (*Plan, error) {
	return CompilePlan(src, dst, CompileOptions{Workers: workers})
}

// pairResult is the output of compiling one (source element,
// destination element) pair.
type pairResult struct {
	tr    Transfer
	inter *Intersection
	err   error
}

// CompilePlan builds the redistribution plan under explicit options.
// The plan is independent of the worker count: transfers appear in
// (source element, destination element) order regardless of which
// worker compiled them.
func CompilePlan(src, dst *part.File, opts CompileOptions) (*Plan, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("redist: nil file")
	}
	start := time.Now()
	span := opts.Trace.StartChild("redist.compile")
	defer span.End()
	mapperSpan := span.StartChild("mappers")
	srcMappers := make([]*core.Mapper, src.Pattern.Len())
	dstMappers := make([]*core.Mapper, dst.Pattern.Len())
	for i := range srcMappers {
		m, err := core.NewMapper(src, i)
		if err != nil {
			return nil, err
		}
		srcMappers[i] = m
	}
	for i := range dstMappers {
		m, err := core.NewMapper(dst, i)
		if err != nil {
			return nil, err
		}
		dstMappers[i] = m
	}
	mapperSpan.End()
	// The intersection geometry is the same for every pair: period is
	// the lcm of the two pattern sizes, base the larger displacement
	// (§7 PREPROCESS). Each pair's intersection re-derives it; the
	// assembly below cross-checks them.
	plan := &Plan{
		Src: src, Dst: dst,
		Period:    falls.Lcm64(src.Pattern.Size(), dst.Pattern.Size()),
		Base:      max64(src.Displacement, dst.Displacement),
		Coalesced: !opts.NoCoalesce,
	}

	nd := dst.Pattern.Len()
	pairs := src.Pattern.Len() * nd
	results := make([]pairResult, pairs)
	// compilePair runs the full per-pair pipeline: intersection,
	// projections, and the triple walk through the (immutable, hence
	// concurrency-safe) mappers.
	compilePair := func(pi int) {
		si, di := pi/nd, pi%nd
		res := &results[pi]
		inter, sp, dp, err := IntersectProjectElements(src, si, dst, di)
		if err != nil {
			res.err = err
			return
		}
		res.inter = inter
		if inter.Empty() {
			return
		}
		res.tr = Transfer{
			SrcElem: si, DstElem: di,
			Intersection: inter, SrcProj: sp, DstProj: dp,
		}
		inter.Set.Walk(func(seg falls.LineSegment) bool {
			so, err := srcMappers[si].Map(inter.Base + seg.L)
			if err != nil {
				res.err = err
				return false
			}
			do, err := dstMappers[di].Map(inter.Base + seg.L)
			if err != nil {
				res.err = err
				return false
			}
			res.tr.triples = append(res.tr.triples, copyTriple{
				srcOff: so, dstOff: do, fileOff: seg.L, n: seg.Len(),
			})
			return true
		})
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > pairs {
		workers = pairs
	}
	pairSpan := span.StartChild("pairs")
	if workers <= 1 {
		for pi := 0; pi < pairs; pi++ {
			compilePair(pi)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for pi := w; pi < pairs; pi += workers {
					compilePair(pi)
				}
			}(w)
		}
		wg.Wait()
	}
	pairSpan.End()

	// Deterministic assembly, with the geometry cross-check: every
	// non-empty intersection must report the analytic period and base.
	// (The pre-fix code let each pair overwrite Plan.Period/Base, so a
	// disagreeing pair would have been silently kept.)
	assembleSpan := span.StartChild("assemble")
	var rawSegments, segments, nonEmpty int64
	for pi := range results {
		res := &results[pi]
		if res.err != nil {
			return nil, res.err
		}
		if res.inter == nil || res.inter.Empty() {
			continue
		}
		if res.inter.Period != plan.Period || res.inter.Base != plan.Base {
			return nil, fmt.Errorf(
				"redist: inconsistent intersection geometry for pair (%d,%d): period %d base %d, want period %d base %d",
				res.tr.SrcElem, res.tr.DstElem, res.inter.Period, res.inter.Base, plan.Period, plan.Base)
		}
		nonEmpty++
		rawSegments += int64(len(res.tr.triples))
		if !opts.NoCoalesce {
			res.tr.triples = coalesceTriples(res.tr.triples)
		}
		segments += int64(len(res.tr.triples))
		plan.Transfers = append(plan.Transfers, res.tr)
	}
	assembleSpan.End()

	if m := opts.Metrics; m != nil {
		mode := m.Counter(MetricCompilesSeq)
		if workers > 1 {
			mode = m.Counter(MetricCompilesPar)
		}
		mode.Inc()
		m.Counter(MetricPairs).Add(int64(pairs))
		m.Counter(MetricPairsNonEmpty).Add(nonEmpty)
		m.Counter(MetricSegmentsRaw).Add(rawSegments)
		m.Counter(MetricSegments).Add(segments)
		m.Histogram(MetricCompileNs, obs.LatencyBuckets()).
			Observe(time.Since(start).Nanoseconds())
	}
	return plan, nil
}

// coalesceTriples merges adjacent copy runs whose source, destination
// and file offsets are all contiguous into maximal runs. Triples
// arrive in ascending file order from the intersection walk, so a
// single forward pass suffices. Merging is exact: the merged run
// copies the same bytes between the same offsets, and the file-offset
// arithmetic of ExecuteRange/Windows still holds because the file
// span of the merged run equals its length.
func coalesceTriples(ts []copyTriple) []copyTriple {
	if len(ts) < 2 {
		return ts
	}
	out := ts[:1]
	for _, tr := range ts[1:] {
		last := &out[len(out)-1]
		if last.fileOff+last.n == tr.fileOff &&
			last.srcOff+last.n == tr.srcOff &&
			last.dstOff+last.n == tr.dstOff {
			last.n += tr.n
			continue
		}
		out = append(out, tr)
	}
	return out
}

// BytesPerPeriod returns the total bytes the plan moves per
// intersection period.
func (p *Plan) BytesPerPeriod() int64 {
	var n int64
	for i := range p.Transfers {
		n += p.Transfers[i].BytesPerPeriod()
	}
	return n
}

// SegmentsPerPeriod returns the total number of contiguous runs per
// period — the fragmentation measure of the partition pair.
func (p *Plan) SegmentsPerPeriod() int64 {
	var n int64
	for i := range p.Transfers {
		n += int64(len(p.Transfers[i].triples))
	}
	return n
}

// Execute redistributes the first length bytes of file data (starting
// at the plan's base offset) from the source element buffers into the
// destination element buffers. src[e] holds source element e's linear
// space, dst likewise; buffers must be large enough for the mapped
// range.
func (p *Plan) Execute(src, dst [][]byte, length int64) error {
	return p.execute(src, dst, length, 1)
}

// ExecuteRange redistributes only the file bytes [from, from+length)
// relative to the plan's base — an incremental redistribution for
// partial updates. Buffers still hold the full element linear spaces.
func (p *Plan) ExecuteRange(src, dst [][]byte, from, length int64) error {
	if from < 0 {
		return fmt.Errorf("redist: negative range start %d", from)
	}
	if length < 0 {
		return fmt.Errorf("redist: negative length %d", length)
	}
	if len(src) != p.Src.Pattern.Len() {
		return fmt.Errorf("redist: %d source buffers for %d elements", len(src), p.Src.Pattern.Len())
	}
	if len(dst) != p.Dst.Pattern.Len() {
		return fmt.Errorf("redist: %d destination buffers for %d elements", len(dst), p.Dst.Pattern.Len())
	}
	if length == 0 || len(p.Transfers) == 0 {
		return nil
	}
	to := from + length // exclusive
	for i := range p.Transfers {
		t := &p.Transfers[i]
		sbuf := src[t.SrcElem]
		dbuf := dst[t.DstElem]
		for k := from / p.Period; k*p.Period < to; k++ {
			base := k * p.Period
			for _, tr := range t.triples {
				lo := max64(base+tr.fileOff, from)
				hi := min64(base+tr.fileOff+tr.n, to)
				if lo >= hi {
					continue
				}
				skip := lo - (base + tr.fileOff)
				n := hi - lo
				so := tr.srcOff + k*t.SrcProj.Period + skip
				do := tr.dstOff + k*t.DstProj.Period + skip
				if so+n > int64(len(sbuf)) {
					return fmt.Errorf("redist: source element %d buffer too small: need %d bytes, have %d",
						t.SrcElem, so+n, len(sbuf))
				}
				if do+n > int64(len(dbuf)) {
					return fmt.Errorf("redist: destination element %d buffer too small: need %d bytes, have %d",
						t.DstElem, do+n, len(dbuf))
				}
				copy(dbuf[do:do+n], sbuf[so:so+n])
			}
		}
	}
	return nil
}

// ExecuteParallel is Execute with the transfers spread over the given
// number of worker goroutines. Transfers write disjoint destination
// bytes, so they are safe to run concurrently.
func (p *Plan) ExecuteParallel(src, dst [][]byte, length int64, workers int) error {
	if workers < 1 {
		workers = 1
	}
	return p.execute(src, dst, length, workers)
}

func (p *Plan) execute(src, dst [][]byte, length int64, workers int) error {
	if len(src) != p.Src.Pattern.Len() {
		return fmt.Errorf("redist: %d source buffers for %d elements", len(src), p.Src.Pattern.Len())
	}
	if len(dst) != p.Dst.Pattern.Len() {
		return fmt.Errorf("redist: %d destination buffers for %d elements", len(dst), p.Dst.Pattern.Len())
	}
	if length < 0 {
		return fmt.Errorf("redist: negative length %d", length)
	}
	if length == 0 || len(p.Transfers) == 0 {
		return nil
	}
	if workers > len(p.Transfers) {
		workers = len(p.Transfers)
	}
	if workers == 1 {
		for i := range p.Transfers {
			t := &p.Transfers[i]
			if err := p.ExecuteTransfer(t, src[t.SrcElem], dst[t.DstElem], length); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(p.Transfers); i += workers {
				t := &p.Transfers[i]
				if err := p.ExecuteTransfer(t, src[t.SrcElem], dst[t.DstElem], length); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ExecuteTransfer applies one of the plan's transfers for the first
// length file bytes: sbuf is the linear space of t's source element,
// dbuf that of its destination element. It is the unit Execute runs per
// transfer, exported for callers that hold one element image at a time
// (the cluster's windowed disk redistribution).
func (p *Plan) ExecuteTransfer(t *Transfer, sbuf, dbuf []byte, length int64) error {
	srcPeriod := t.SrcProj.Period
	dstPeriod := t.DstProj.Period
	for k := int64(0); k*p.Period < length; k++ {
		for _, tr := range t.triples {
			n := tr.n
			if rem := length - k*p.Period - tr.fileOff; rem < n {
				n = rem
			}
			if n <= 0 {
				continue
			}
			so := tr.srcOff + k*srcPeriod
			do := tr.dstOff + k*dstPeriod
			if so+n > int64(len(sbuf)) {
				return fmt.Errorf("redist: source element %d buffer too small: need %d bytes, have %d",
					t.SrcElem, so+n, len(sbuf))
			}
			if do+n > int64(len(dbuf)) {
				return fmt.Errorf("redist: destination element %d buffer too small: need %d bytes, have %d",
					t.DstElem, do+n, len(dbuf))
			}
			copy(dbuf[do:do+n], sbuf[so:so+n])
		}
	}
	return nil
}

// SplitFile distributes a linear file image (the partitioned region
// starting at the file's displacement) into per-element buffers, the
// physical layout a partition induces. It is the reference
// decomposition the redistribution tests and examples build on.
func SplitFile(f *part.File, data []byte) [][]byte {
	ps := f.Pattern.Size()
	length := int64(len(data))
	out := make([][]byte, f.Pattern.Len())
	for e := range out {
		out[e] = make([]byte, f.ElementBytes(e, length))
		set := f.Pattern.Element(e).Set
		pos := int64(0)
		for rep := int64(0); rep*ps < length; rep++ {
			base := rep * ps
			set.Walk(func(seg falls.LineSegment) bool {
				lo := base + seg.L
				if lo >= length {
					return false
				}
				n := min64(seg.Len(), length-lo)
				copy(out[e][pos:pos+n], data[lo:lo+n])
				pos += n
				return true
			})
		}
	}
	return out
}

// JoinFile reassembles a linear file image of the given length from
// per-element buffers — the inverse of SplitFile.
func JoinFile(f *part.File, elems [][]byte, length int64) ([]byte, error) {
	if len(elems) != f.Pattern.Len() {
		return nil, fmt.Errorf("redist: %d buffers for %d elements", len(elems), f.Pattern.Len())
	}
	ps := f.Pattern.Size()
	data := make([]byte, length)
	for e := range elems {
		set := f.Pattern.Element(e).Set
		pos := int64(0)
		var err error
		for rep := int64(0); rep*ps < length; rep++ {
			base := rep * ps
			set.Walk(func(seg falls.LineSegment) bool {
				lo := base + seg.L
				if lo >= length {
					return false
				}
				n := min64(seg.Len(), length-lo)
				if pos+n > int64(len(elems[e])) {
					err = fmt.Errorf("redist: element %d buffer too small", e)
					return false
				}
				copy(data[lo:lo+n], elems[e][pos:pos+n])
				pos += n
				return true
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}
