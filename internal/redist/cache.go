package redist

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	"parafile/internal/codec"
	"parafile/internal/obs"
	"parafile/internal/part"
)

// cache.go implements fingerprint-keyed LRU caches for the two
// view-set products the paper says should be "paid only at view
// setting and amortized over several accesses" (§8.2): whole
// redistribution plans (PlanCache) and per-element-pair
// intersection/projection triples (PairCache, what Clusterfile's
// SetView computes). Keys are canonical codec encodings of
// (pattern, displacement), so two files with equal geometry hit the
// same entry no matter how they were constructed. Cached values are
// immutable after compilation and may be shared by any number of
// goroutines.

// Fingerprint returns the canonical cache key of a partition-pair
// geometry: the codec encodings of (src.Pattern, src.Displacement)
// and (dst.Pattern, dst.Displacement), concatenated. The encoding is
// self-delimiting, so the concatenation is unambiguous.
func Fingerprint(src, dst *part.File) string {
	return string(codec.EncodeFile(src)) + string(codec.EncodeFile(dst))
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// lru is a mutex-guarded LRU map shared by the typed caches. The obs
// metrics mirror the CacheStats counters; unbound (nil) metrics are
// free no-ops, so uninstrumented caches pay nothing.
type lru struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats CacheStats

	hits, misses, evictions *obs.Counter
	entries                 *obs.Gauge
}

// instrument binds the lru's traffic to <prefix>_hits_total,
// <prefix>_misses_total, <prefix>_evictions_total and the
// <prefix>_entries gauge of the registry. Counters pick up from the
// current CacheStats so a late bind still reports lifetime totals.
func (c *lru) instrument(reg *obs.Registry, prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits = reg.Counter(prefix + "_hits_total")
	c.misses = reg.Counter(prefix + "_misses_total")
	c.evictions = reg.Counter(prefix + "_evictions_total")
	c.entries = reg.Gauge(prefix + "_entries")
	c.hits.Add(int64(c.stats.Hits))
	c.misses.Add(int64(c.stats.Misses))
	c.evictions.Add(int64(c.stats.Evictions))
	c.entries.Set(int64(c.ll.Len()))
}

type lruEntry struct {
	key string
	val interface{}
}

func newLRU(capacity, defaultCap int) *lru {
	if capacity <= 0 {
		capacity = defaultCap
	}
	return &lru{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lru) get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		c.hits.Inc()
		return el.Value.(*lruEntry).val, true
	}
	c.stats.Misses++
	c.misses.Inc()
	return nil, false
}

func (c *lru) add(key string, val interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.stats.Evictions++
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
}

func (c *lru) remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.entries.Set(int64(c.ll.Len()))
	return true
}

func (c *lru) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.entries.Set(0)
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru) statsSnapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DefaultCacheCapacity is the entry count used when a cache is built
// with a non-positive capacity.
const DefaultCacheCapacity = 64

// PlanCache is an LRU cache of compiled redistribution plans keyed by
// partition-pair fingerprint. It is safe for concurrent use; cached
// plans are shared, which is safe because plans are immutable after
// compilation (Execute and friends only read them).
type PlanCache struct {
	lru  *lru
	opts CompileOptions
}

// NewPlanCache builds a plan cache holding up to capacity plans
// (DefaultCacheCapacity when capacity <= 0). opts applies to every
// compile the cache performs on a miss.
func NewPlanCache(capacity int, opts CompileOptions) *PlanCache {
	return &PlanCache{lru: newLRU(capacity, DefaultCacheCapacity), opts: opts}
}

// Instrument binds the cache's traffic to the registry's
// parafile_redist_plan_cache_* series and routes the compile metrics
// of cache misses there too. A nil registry reverts to uninstrumented.
func (c *PlanCache) Instrument(reg *obs.Registry) {
	c.lru.instrument(reg, planCachePrefix)
	c.opts.Metrics = reg
}

// Get returns the cached plan for the pair, if present.
func (c *PlanCache) Get(src, dst *part.File) (*Plan, bool) {
	v, ok := c.lru.get(Fingerprint(src, dst))
	if !ok {
		return nil, false
	}
	return v.(*Plan), true
}

// Put inserts (or refreshes) a plan.
func (c *PlanCache) Put(src, dst *part.File, p *Plan) {
	c.lru.add(Fingerprint(src, dst), p)
}

// GetOrCompile returns the cached plan for the pair, compiling and
// caching it on a miss. hit reports whether the plan came from the
// cache. Compilation runs outside the cache lock, so two goroutines
// missing on the same key may both compile; the plans are identical
// and the last Put wins.
func (c *PlanCache) GetOrCompile(src, dst *part.File) (p *Plan, hit bool, err error) {
	key := Fingerprint(src, dst)
	if v, ok := c.lru.get(key); ok {
		return v.(*Plan), true, nil
	}
	p, err = CompilePlan(src, dst, c.opts)
	if err != nil {
		return nil, false, err
	}
	c.lru.add(key, p)
	return p, false, nil
}

// Invalidate drops the pair's entry, reporting whether one existed.
func (c *PlanCache) Invalidate(src, dst *part.File) bool {
	return c.lru.remove(Fingerprint(src, dst))
}

// Purge empties the cache.
func (c *PlanCache) Purge() { c.lru.purge() }

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return c.lru.len() }

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats { return c.lru.statsSnapshot() }

// pairValue is one cached IntersectProjectElements result.
type pairValue struct {
	inter  *Intersection
	p1, p2 *Projection
}

// PairCache is an LRU cache of per-element-pair intersection and
// projection results — what Clusterfile's SetView computes for every
// (view element, subfile) pair. Safe for concurrent use; the cached
// intersection and projections are immutable and shared.
type PairCache struct {
	lru *lru
}

// NewPairCache builds a pair cache holding up to capacity entries
// (DefaultCacheCapacity when capacity <= 0).
func NewPairCache(capacity int) *PairCache {
	return &PairCache{lru: newLRU(capacity, DefaultCacheCapacity)}
}

// Instrument binds the cache's traffic to the registry's
// parafile_redist_pair_cache_* series. A nil registry reverts to
// uninstrumented.
func (c *PairCache) Instrument(reg *obs.Registry) {
	c.lru.instrument(reg, pairCachePrefix)
}

func pairKey(f1 *part.File, e1 int, f2 *part.File, e2 int) string {
	buf := binary.AppendUvarint(nil, uint64(e1))
	buf = binary.AppendUvarint(buf, uint64(e2))
	return string(buf) + Fingerprint(f1, f2)
}

// IntersectProject is IntersectProjectElements through the cache:
// the intersection of element e1 of f1 with element e2 of f2 plus its
// projections onto both elements' linear spaces.
func (c *PairCache) IntersectProject(f1 *part.File, e1 int, f2 *part.File, e2 int) (*Intersection, *Projection, *Projection, error) {
	if f1 == nil || f2 == nil {
		return nil, nil, nil, fmt.Errorf("redist: nil file")
	}
	key := pairKey(f1, e1, f2, e2)
	if v, ok := c.lru.get(key); ok {
		pv := v.(*pairValue)
		return pv.inter, pv.p1, pv.p2, nil
	}
	inter, p1, p2, err := IntersectProjectElements(f1, e1, f2, e2)
	if err != nil {
		return nil, nil, nil, err
	}
	c.lru.add(key, &pairValue{inter: inter, p1: p1, p2: p2})
	return inter, p1, p2, nil
}

// Purge empties the cache.
func (c *PairCache) Purge() { c.lru.purge() }

// Len returns the number of cached pairs.
func (c *PairCache) Len() int { return c.lru.len() }

// Stats returns a snapshot of the cache counters.
func (c *PairCache) Stats() CacheStats { return c.lru.statsSnapshot() }
