package pipeline

import (
	"context"
	"sync"
	"sync/atomic"

	"sring/internal/obs"
)

// Cache memoizes stage outputs across Synthesize calls. Keys are
// content-addressed — a SHA-256 over the application's full content plus
// the option prefix the stage depends on — so a cache can safely be shared
// between applications, methods and option sweeps; only genuinely
// identical stage work hits. The zero value is not usable; create caches
// with NewCache or NewCacheWithConfig. All methods are safe for concurrent
// use, and a nil *Cache is a valid "caching off" value everywhere in this
// package.
//
// The key space is sharded (the first key byte picks a mutexed shard), each
// shard keeps its entries on an LRU list, and a configurable total byte
// budget bounds resident size: inserts that push a shard past its slice of
// the budget evict least-recently-used entries. Concurrent identical stage
// computations coalesce — a per-key singleflight makes racing requests
// share one execution instead of duplicating seconds of MILP work. An
// optional persistence directory saves entries to disk write-behind and
// reloads them on construction, so warm state survives restarts.
//
// Cached stage outputs are either treated as immutable by all downstream
// code (rings, paths, layouts, priced paths, PDNs) or defensively copied on
// the way in and out (wavelength assignments, whose Normalize mutates), so
// designs served from the cache are bit-identical to uncached ones.
// Parallelism and Recorder never enter a key: neither changes the result.
type Cache struct {
	shards   []cacheShard
	perShard int64 // per-shard byte budget; 0 = unbounded
	maxBytes int64

	hits, misses         atomic.Int64
	coalesced, evictions atomic.Int64
	invalid              atomic.Int64
	bytes                atomic.Int64

	persist *persister
}

// CacheConfig configures NewCacheWithConfig. The zero value means
// "unbounded, memory-only" — exactly what NewCache builds.
type CacheConfig struct {
	// MaxBytes bounds the cache's resident size (estimated entry bytes,
	// see entrySize). 0 means unbounded. The budget is split evenly across
	// the shards; a shard always retains at least its most recently
	// inserted entry, so the bound is soft by at most one entry per shard.
	MaxBytes int64
	// Shards is the number of mutexed key-space shards (0: 16). More
	// shards reduce lock contention under concurrent serving.
	Shards int
	// Dir, when non-empty, enables disk persistence: entries are saved
	// write-behind as gob files keyed by their content address, and loaded
	// back on construction. See persist.go for the format and caveats.
	Dir string
}

const defaultCacheShards = 16

// NewCache returns an empty, unbounded, memory-only stage cache.
func NewCache() *Cache {
	c, _ := NewCacheWithConfig(CacheConfig{})
	return c
}

// NewCacheWithConfig returns a stage cache with the given bounds and
// optional persistence directory. The only error source is the persistence
// directory (creation or an unreadable existing file set).
func NewCacheWithConfig(cfg CacheConfig) (*Cache, error) {
	n := cfg.Shards
	if n <= 0 {
		n = defaultCacheShards
	}
	c := &Cache{
		shards:   make([]cacheShard, n),
		maxBytes: cfg.MaxBytes,
	}
	if cfg.MaxBytes > 0 {
		c.perShard = cfg.MaxBytes / int64(n)
		if c.perShard == 0 {
			c.perShard = 1
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[cacheKey]*cacheEntry)
		sh.inflight = make(map[cacheKey]chan struct{})
	}
	if cfg.Dir != "" {
		p, err := newPersister(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.persist = p
		if err := p.loadInto(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close flushes any pending write-behind persistence and stops the
// background writer. Safe on nil and on memory-only caches; the cache
// itself remains usable (further stores are simply no longer persisted).
func (c *Cache) Close() error {
	if c == nil || c.persist == nil {
		return nil
	}
	return c.persist.close()
}

// cacheShard is one slice of the key space: a map for lookup plus an
// intrusive doubly-linked LRU list (head = most recently used).
type cacheShard struct {
	mu         sync.Mutex
	m          map[cacheKey]*cacheEntry
	head, tail *cacheEntry
	bytes      int64
	inflight   map[cacheKey]chan struct{}
}

type cacheEntry struct {
	key        cacheKey
	stage      string
	v          interface{}
	size       int64
	prev, next *cacheEntry
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) touch(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

func (c *Cache) shardFor(key cacheKey) *cacheShard {
	return &c.shards[int(key[0])%len(c.shards)]
}

// stageCounters maps each stage to its pipeline.cache.<stage>.hits and
// .misses counter names, built once so that counting a lookup allocates
// nothing.
var stageCounters = func() map[string][2]string {
	m := map[string][2]string{}
	for _, st := range []string{"construct", "layout", "loss", "assign", "pdn"} {
		m[st] = [2]string{"pipeline.cache." + st + ".hits", "pipeline.cache." + st + ".misses"}
	}
	return m
}()

// lookup fetches a stage entry and updates the hit/miss telemetry: the
// cache's own counters, and the pipeline.cache.hits/misses counters plus
// their per-stage split, counted through sp. A hit promotes the entry to
// the front of its shard's LRU list.
//
// A nil cache is "caching off": nothing was looked up, so instead of a
// miss it counts into the distinct pipeline.cache.disabled counter —
// otherwise hit-rate computations over mixed cached/uncached runs would
// silently undercount (hits/(hits+misses) with phantom misses).
func (c *Cache) lookup(sp *obs.Span, stage string, key cacheKey) (interface{}, bool) {
	if c == nil {
		sp.Count("pipeline.cache.disabled", 1)
		return nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	var v interface{}
	if ok {
		sh.touch(e)
		v = e.v
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
		sp.Count("pipeline.cache.hits", 1)
		sp.Count(stageCounters[stage][0], 1)
	} else {
		c.misses.Add(1)
		sp.Count("pipeline.cache.misses", 1)
		sp.Count(stageCounters[stage][1], 1)
	}
	return v, ok
}

// store inserts a stage entry. First writer wins: a concurrent duplicate
// insert keeps the existing value, so racing synthesis calls always read
// one consistent (and, by determinism, identical) result. When the insert
// pushes the shard past its byte budget, least-recently-used entries are
// evicted — never the entry just inserted, so a single oversized entry
// overshoots the budget rather than thrashing. Returns the net change in
// resident bytes and the number of entries evicted.
func (c *Cache) store(stage string, key cacheKey, v interface{}) (bytesDelta int64, evicted int) {
	if c == nil {
		return 0, 0
	}
	size := entrySize(v)
	sh := c.shardFor(key)
	sh.mu.Lock()
	if _, exists := sh.m[key]; exists {
		sh.mu.Unlock()
		return 0, 0
	}
	e := &cacheEntry{key: key, stage: stage, v: v, size: size}
	sh.m[key] = e
	sh.pushFront(e)
	sh.bytes += size
	bytesDelta = size
	if c.perShard > 0 {
		for sh.bytes > c.perShard && sh.tail != nil && sh.tail != e {
			victim := sh.tail
			sh.unlink(victim)
			delete(sh.m, victim.key)
			sh.bytes -= victim.size
			bytesDelta -= victim.size
			evicted++
		}
	}
	sh.mu.Unlock()
	c.bytes.Add(bytesDelta)
	c.evictions.Add(int64(evicted))
	if c.persist != nil {
		c.persist.enqueue(stage, key, v)
	}
	return bytesDelta, evicted
}

// invalidate drops one entry (a hit that failed shape validation).
func (c *Cache) invalidate(key cacheKey) {
	if c == nil {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.unlink(e)
		delete(sh.m, key)
		sh.bytes -= e.size
		c.bytes.Add(-e.size)
	}
	sh.mu.Unlock()
}

// compute is the engine's per-stage entry point: a singleflight-coalesced,
// validated lookup-or-execute. fn computes the stage value and reports
// whether it is cacheable (cancelled results are not); validate, when
// non-nil, is the cheap shape check a cache hit must pass — a failing hit
// is dropped, counted into pipeline.cache.invalid, and recomputed, so a
// corrupted entry (bad persistence file, aliasing bug) degrades to a miss
// instead of corrupting a design.
//
// Exactly one of several racing callers with the same key executes fn; the
// rest wait on the leader's completion and read the stored result (counted
// into pipeline.cache.coalesced). A waiter whose context falls while
// waiting — or whose leader's result was uncacheable — runs fn itself, so
// the engine's graceful-degradation semantics survive coalescing.
//
// Returns the value, whether it was served from the cache, and fn's error.
func (c *Cache) compute(ctx context.Context, sp *obs.Span, stage string, key cacheKey,
	validate func(interface{}) error, fn func() (v interface{}, cacheable bool, err error)) (interface{}, bool, error) {
	if c == nil {
		sp.Count("pipeline.cache.disabled", 1)
		v, _, err := fn()
		return v, false, err
	}
	waited := false
	for {
		if v, ok := c.lookup(sp, stage, key); ok {
			if validate != nil {
				if err := validate(v); err != nil {
					c.invalidate(key)
					c.invalid.Add(1)
					sp.Count("pipeline.cache.invalid", 1)
					continue
				}
			}
			if waited {
				c.coalesced.Add(1)
				sp.Count("pipeline.cache.coalesced", 1)
			}
			return v, true, nil
		}

		sh := c.shardFor(key)
		sh.mu.Lock()
		if ch, inflight := sh.inflight[key]; inflight {
			sh.mu.Unlock()
			if ctx.Err() != nil {
				// Cancelled while a leader runs: don't queue behind it —
				// run fn under the cancelled context so the stage returns
				// its best feasible result immediately.
				v, _, err := fn()
				return v, false, err
			}
			select {
			case <-ch:
				waited = true
			case <-ctx.Done():
			}
			continue
		}
		ch := make(chan struct{})
		sh.inflight[key] = ch
		sh.mu.Unlock()

		v, cacheable, err := fn()
		if err == nil && cacheable {
			delta, evicted := c.store(stage, key, v)
			if delta != 0 {
				sp.Count("pipeline.cache.bytes", delta)
			}
			if evicted > 0 {
				sp.Count("pipeline.cache.evictions", int64(evicted))
			}
		}
		sh.mu.Lock()
		delete(sh.inflight, key)
		sh.mu.Unlock()
		close(ch)
		return v, false, err
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// CacheStats is a point-in-time summary of a cache's counters and resident
// size, shaped for JSON (cmd/serve's /stats.json).
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Invalid   int64 `json:"invalid"`
}

// StatsSnapshot captures every counter. Safe on nil (zero stats).
func (c *Cache) StatsSnapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Entries:   c.Len(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.maxBytes,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Invalid:   c.invalid.Load(),
	}
}

// Len returns the number of cached stage entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the estimated resident size of the cached entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes.Load()
}
