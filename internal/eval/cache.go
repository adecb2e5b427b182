package eval

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache is a concurrency-safe memoizing store of exact evaluation
// results, shared between any number of engines (and therefore between
// any number of mappers racing over one kernel — the portfolio runner's
// cross-mapper reuse). Attach it with Engine.WithCache; afterwards every
// Makespan / MakespanCutoff / Evaluate / EvaluateBatch / EvaluateBatchVec
// call first consults the cache and only simulates on a miss.
//
// Correctness contract: the cache only ever stores *exact* results — a
// makespan is stored when it obeyed the cutoff (result <= cutoff) or is
// the definitive Infeasible sentinel, and energies are exact by
// construction. A hit therefore returns the bit-identical value a fresh
// simulation would produce, for any cutoff: exact values at or below the
// caller's cutoff are what the engine contract promises, and an exact
// value above it still certifies that the true makespan exceeds the
// cutoff. Cutoff-clamped partial results (lower bounds) are never
// stored. Consequently a cached engine can only change *which* value
// above the cutoff a caller observes — never whether it is above — so
// any search that treats beyond-cutoff results as plain rejections (all
// mappers in this repository do) returns bit-identical mappings and
// deterministic stats with and without a cache.
//
// Keys are the full materialized device assignment (one byte per task),
// so distinct mappings can never collide; "mapping hash" lookups are
// resolved by Go's string-keyed map. Caching requires a platform with at
// most 255 devices (WithCache rejects larger platforms).
//
// Telemetry (hits/misses/stores) is wall-clock dependent: two ops of one
// batch carrying the same mapping may both miss when evaluated
// concurrently but hit back-to-back when evaluated serially. Results are
// unaffected (both orders produce the same exact values); only the
// counters vary, so they are reported separately from any determinism-
// checked statistics.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]cacheEntry
	// k is the kernel the cache is bound to, set on first attach. Keys
	// are only device-assignment bytes, so entries are meaningless under
	// any other (graph, platform, schedule set); WithCache refuses to
	// attach the cache to a different kernel.
	k *kernel

	// cap bounds len(entries); 0 means unbounded. fifo[head:] is the
	// insertion order of the live keys (oldest first) used for
	// deterministic eviction: when a store would exceed cap, the oldest
	// keys are deleted first. Upgrades in place (energy materialization)
	// do not refresh a key's position — eviction order is pure insertion
	// order, which depends only on the sequence of store calls, not on
	// wall-clock timing beyond it.
	cap  int
	fifo []string
	head int

	hits, misses, stores, evictions atomic.Int64
}

// cacheEntry is one memoized result. hasEn discriminates entries whose
// energy has been materialized (energies are computed lazily: the
// single-objective paths never pay for them).
type cacheEntry struct {
	ms, en float64
	hasEn  bool
}

// NewCache returns an empty, unbounded evaluation cache. One-shot CLI
// runs can afford it; long-running services should use NewCacheBounded
// so a warm cache cannot grow without limit.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]cacheEntry)}
}

// NewCacheBounded returns an empty cache holding at most maxEntries
// mappings; maxEntries <= 0 means unbounded (same as NewCache). When
// full, stores evict the oldest inserted entries first (FIFO) — a
// deterministic policy: the retained set depends only on the sequence
// of stores, and since evicting an exact entry can only turn a would-be
// hit into a recomputation of the same exact value, eviction never
// changes any evaluation result (see the type Cache correctness
// contract). One entry costs roughly one byte per task for the key
// (held twice: map key + eviction queue) plus two float64s, so even
// a million 250-task entries stay around half a gigabyte.
func NewCacheBounded(maxEntries int) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{entries: make(map[string]cacheEntry), cap: maxEntries}
}

// Cap returns the max-entries bound (0 = unbounded).
func (c *Cache) Cap() int { return c.cap }

// CacheStats is a telemetry snapshot. The counters depend on goroutine
// timing (see type Cache) and are excluded from the repository's
// determinism contracts.
type CacheStats struct {
	// Hits counts lookups served from the cache; Misses counts lookups
	// that fell through to a simulation.
	Hits, Misses int64
	// Stores counts exact results inserted; Entries is the current size.
	Stores, Entries int64
	// Evictions counts entries dropped to hold a bounded cache under its
	// cap (always 0 for unbounded caches).
	Evictions int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a telemetry snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Entries:   int64(n),
		Evictions: c.evictions.Load(),
	}
}

// Len returns the number of cached mappings.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// lookup returns the entry under key, counting a hit or miss. The key
// slice is not retained.
func (c *Cache) lookup(key []byte) (cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.entries[string(key)] // no-alloc map access
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// store inserts or upgrades the entry under key. An existing entry is
// never downgraded: energies, once materialized, are kept (and upgrades
// keep the key's original eviction-queue position). The key is copied.
// On bounded caches a new key first evicts the oldest entries until
// there is room.
func (c *Cache) store(key []byte, ent cacheEntry) {
	c.mu.Lock()
	if old, ok := c.entries[string(key)]; ok {
		// Upgrade in place: no queue movement, no eviction needed.
		if old.hasEn && !ent.hasEn {
			ent.en, ent.hasEn = old.en, true
		}
		c.entries[string(key)] = ent
		c.mu.Unlock()
		c.stores.Add(1)
		return
	}
	var evicted int64
	if c.cap > 0 {
		for len(c.entries) >= c.cap && c.head < len(c.fifo) {
			delete(c.entries, c.fifo[c.head])
			c.fifo[c.head] = "" // release the string for the GC
			c.head++
			evicted++
		}
	}
	k := string(key) // one copy shared by map key and eviction queue
	c.entries[k] = ent
	if c.cap > 0 {
		// Compact the queue once the dead prefix dominates, so the slice
		// cannot grow without bound across evictions.
		if c.head > len(c.fifo)/2 && c.head > 64 {
			c.fifo = append(c.fifo[:0], c.fifo[c.head:]...)
			c.head = 0
		}
		c.fifo = append(c.fifo, k)
	}
	c.mu.Unlock()
	c.stores.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// bind associates the cache with a kernel on first attach and reports
// whether k is the bound kernel.
func (c *Cache) bind(k *kernel) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.k == nil {
		c.k = k
	}
	return c.k == k
}

// WithCache returns an engine sharing this engine's kernel, state pool
// and worker count but memoizing exact evaluation results in c. The
// receiver is not modified; passing nil detaches any cache. Results are
// bit-identical to the uncached engine (see type Cache for the exactness
// argument).
//
// A cache is bound to the kernel of its first attach: keys are only the
// device-assignment bytes, so entries would be silently wrong under any
// other (graph, platform, schedule set). Attaching the cache to an
// engine with a different kernel is therefore a programming error and
// panics — callers recompiling kernels (e.g. online replay after a
// platform perturbation) must create a fresh Cache per kernel rather
// than carry entries across. (Earlier versions silently dropped the
// cache here, which masked exactly that misuse as a performance
// regression.) Platforms with more than 255 devices, which byte keys
// cannot encode, panic as well; probe with Cacheable first. Engines
// derived via WithWorkers share the kernel and stay cacheable.
func (e *Engine) WithCache(c *Cache) *Engine {
	if c != nil {
		if e.k.nd > 255 {
			panic(fmt.Sprintf("eval: cache keys cannot encode %d devices (max 255); guard WithCache with Engine.Cacheable", e.k.nd))
		}
		if !c.bind(e.k) {
			panic("eval: cache is bound to a different kernel (graph, platform or schedule set); " +
				"create a fresh Cache per compiled kernel instead of re-attaching one across rebuilds")
		}
	}
	d := *e
	d.cache = c
	return &d
}

// Cacheable reports whether a Cache can serve this engine's platform
// (byte keys require at most 255 devices).
func (e *Engine) Cacheable() bool { return e.k.nd <= 255 }

// Cache returns the attached evaluation cache (nil when uncached).
func (e *Engine) Cache() *Cache { return e.cache }

// cachedEval wraps one materialized-mapping evaluation with a cache
// lookup and an exactness-gated store. m is the fully materialized
// device assignment; sim runs the simulation on a miss (or when the
// cached entry lacks a requested energy).
func (e *Engine) cachedEval(st *simState, m []int, cutoff float64, en *float64, sim func() float64) float64 {
	key := st.keybuf[:len(m)]
	for i, d := range m {
		key[i] = byte(d)
	}
	if ent, ok := e.cache.lookup(key); ok {
		if en == nil {
			return ent.ms
		}
		if !ent.hasEn {
			// Materialize the energy lazily (one O(n) table pass) and
			// upgrade the entry for the next multi-objective caller.
			ent.en, ent.hasEn = e.k.energy(st, m), true
			e.cache.store(key, ent)
		}
		*en = ent.en
		return ent.ms
	}
	ms := sim()
	if en != nil {
		*en = e.k.energy(st, m)
	}
	// Only exact results are cacheable: values within the cutoff, and
	// the Infeasible sentinel (definitive regardless of cutoff).
	// Cutoff-clamped lower bounds are not.
	if ms <= cutoff || ms == Infeasible {
		ent := cacheEntry{ms: ms}
		if en != nil {
			ent.en, ent.hasEn = *en, true
		}
		e.cache.store(key, ent)
	}
	return ms
}
