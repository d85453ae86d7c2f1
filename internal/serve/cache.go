package serve

import (
	"fmt"
	"sync"

	"repro/internal/rules"
)

// Cache is the concurrent sharded plan cache: canonicalized program +
// machine parameters → optimized plan. Keys are hashed onto a power-of-two
// number of shards, each an independently locked LRU-bounded map, so
// concurrent requests for different programs rarely contend on one mutex.
// A computation in flight is published as a pending entry, and every
// concurrent request for the same key waits on it instead of running the
// engine again (single-flight). An entry is one allocation: its recency
// links, its wait, its plan, search statistics and hit rendering.
type Cache struct {
	shards []cacheShard
	mask   uint32
	// perShard is the LRU bound of each shard; the total capacity is
	// perShard · len(shards).
	perShard int
	bodies   bodyIndex
}

// bodyIndex is the cache's second door: request body → cache key, for
// bodies the planner has answered from a ready entry before. It only ever
// leads to an entry — a key that is pending, failed or gone answers
// nothing, and the caller goes the long way round, through GetOrCompute —
// so what it holds, and what it has dropped, cannot change an answer.
type bodyIndex struct {
	mu   sync.RWMutex
	keys map[string]string
	max  int // bound of len(keys): the capacity the cache was asked for
}

// maxIndexedBody is the longest body the index keeps. A client renders a
// program the same way every time, so one spelling per plan is the common
// case; capacity bodies of this size (16 MiB at the default geometry) is
// what the index may cost. The benchmark's bodies are under 200 bytes; a
// longer body is still answered, the long way round.
const maxIndexedBody = 4 << 10

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	// lru is the ring of entries through this sentinel, root.next = most
	// recently used; entries still computing are never evicted.
	lru                                cacheEntry
	hits, misses, coalesced, evictions uint64
	// byBody counts the hits among hits that came in through the body index.
	byBody uint64
}

// cacheEntry is one slot: once plan/err are set, ready is set under the
// shard's lock (a failed entry removed) and done released. Its plan points
// to it for body, rendered by the first hit, and body's Content-Length.
type cacheEntry struct {
	key        string
	prev, next *cacheEntry
	done       sync.WaitGroup
	ready      bool
	plan       Plan
	stats      rules.SearchStats // what plan.Search points to, for a searched plan
	err        error
	once       sync.Once
	body       []byte
	length     []string
}

// toFront links e in as the most recently used entry, from where it was.
func (sh *cacheShard) toFront(e *cacheEntry) {
	if e.next != nil {
		unlink(e)
	}
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

func unlink(e *cacheEntry) { e.prev.next, e.next.prev = e.next, e.prev }

// CacheStats aggregates the per-shard counters.
type CacheStats struct {
	// Hits counts lookups answered from a ready entry, Misses lookups
	// that ran the compute function, Coalesced lookups that waited on a
	// computation already in flight (single-flight sharing), Evictions
	// ready entries dropped by the LRU bound.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// Size is the current number of entries, Capacity the total bound,
	// Shards the shard count.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	Shards   int `json:"shards"`
	// ByBody counts the hits (they are in Hits too) answered through the
	// body index, Bodies the request bodies it holds.
	ByBody uint64 `json:"by_body"`
	Bodies int    `json:"bodies"`
}

// HitRate is hits+coalesced over all lookups (0 when none yet).
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// NewCache returns a cache bounded at capacity entries spread over
// shards shards (rounded up to a power of two). The per-shard bound is
// the ceiling of capacity/shards — never its floor, so the cache holds
// at least capacity entries; each shard holds at least one entry, so the
// effective capacity is at least max(capacity, shards).
func NewCache(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint32(n - 1), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].lru.prev, c.shards[i].lru.next = &c.shards[i].lru, &c.shards[i].lru
	}
	c.bodies = bodyIndex{keys: make(map[string]string), max: max(capacity, 1)}
	return c
}

// shard hashes key with FNV-1a (hash/fnv's New32a, without the hash.Hash32
// and the []byte copy of the key it costs per lookup).
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h&c.mask]
}

// byBody answers a request body the index knows from the ready entry its
// key leads to, counting the hit and refreshing the entry's recency exactly
// as GetOrCompute does. A body it does not know, and a key whose entry is
// pending or gone, count nothing and report false: GetOrCompute then
// counts that request, once.
func (c *Cache) byBody(body []byte) (plan Plan, ok bool) {
	if len(body) > maxIndexedBody {
		return plan, false
	}
	c.bodies.mu.RLock()
	key, ok := c.bodies.keys[string(body)]
	c.bodies.mu.RUnlock()
	if !ok {
		return plan, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !e.ready {
		return plan, false
	}
	sh.hits++
	sh.byBody++
	sh.toFront(e)
	return e.plan, true
}

// remember records that body asks for key; the caller has just answered
// body from key's ready entry. A full index drops an arbitrary body.
func (c *Cache) remember(body []byte, key string) {
	if len(body) > maxIndexedBody {
		return
	}
	ix := &c.bodies
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.keys) >= ix.max {
		for b := range ix.keys {
			delete(ix.keys, b)
			break
		}
	}
	ix.keys[string(body)] = key
}

// GetOrCompute returns the plan for key, computing it with compute on a
// miss. Exactly one caller runs compute per resident key; concurrent
// callers for the same key block until it finishes and share its result
// (cached = true for them and for every later lookup, and the shared hit
// refreshes the entry's LRU recency). A failed or panicking computation
// is not cached: its waiters receive the error with cached = false, the
// entry is removed, and the next lookup retries.
func (c *Cache) GetOrCompute(key string, compute func() (Plan, error)) (plan Plan, cached bool, err error) {
	return c.getOrCompute(key, func(e *cacheEntry) (err error) {
		e.plan, err = compute()
		return err
	})
}

// getOrCompute is GetOrCompute with a compute that writes into the entry.
func (c *Cache) getOrCompute(key string, compute func(*cacheEntry) error) (plan Plan, cached bool, err error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		if e.ready {
			sh.hits++
			sh.toFront(e)
			sh.mu.Unlock()
			return e.plan, true, nil
		}
		sh.coalesced++
		sh.mu.Unlock()
		e.done.Wait()
		if e.err != nil {
			return e.plan, false, e.err
		}
		// The awaited plan is as recently used as a plain hit's: keep hot
		// keys computed under contention at the front of the LRU.
		sh.mu.Lock()
		if cur, ok := sh.entries[key]; ok && cur == e {
			sh.toFront(e)
		}
		sh.mu.Unlock()
		return e.plan, true, nil
	}
	e := &cacheEntry{key: key}
	e.done.Add(1)
	sh.toFront(e)
	sh.entries[key] = e
	sh.misses++
	sh.evictLocked(c.perShard)
	sh.mu.Unlock()

	e.err = runCompute(e, compute)
	sh.mu.Lock()
	if e.ready = true; e.err == nil {
		e.plan.hit = e
	} else {
		delete(sh.entries, key)
		unlink(e)
	}
	sh.mu.Unlock()
	e.done.Done()
	return e.plan, false, e.err
}

// runCompute runs the compute function, converting a panic into an error
// result. Without this, a panicking compute would unwind past the
// close(done) and leave every coalesced waiter for the key blocked
// forever on a pending entry the LRU can never evict.
func runCompute(e *cacheEntry, compute func(*cacheEntry) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.plan, err = Plan{}, fmt.Errorf("plan computation panicked: %v", r)
		}
	}()
	return compute(e)
}

// evictLocked drops least-recently-used ready entries until the shard is
// within bound. Entries still computing are skipped — they are pinned by
// their waiters — so a shard may transiently exceed the bound while many
// computations are in flight.
func (sh *cacheShard) evictLocked(bound int) {
	for e := sh.lru.prev; len(sh.entries) > bound && e != &sh.lru; {
		prev := e.prev
		if e.ready {
			delete(sh.entries, e.key)
			unlink(e)
			sh.evictions++
		}
		e = prev
	}
}

// Len is the current number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats aggregates the per-shard counters into one snapshot.
func (c *Cache) Stats() CacheStats {
	var s CacheStats
	s.Shards = len(c.shards)
	s.Capacity = c.perShard * len(c.shards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Coalesced += sh.coalesced
		s.Evictions += sh.evictions
		s.ByBody += sh.byBody
		s.Size += len(sh.entries)
		sh.mu.Unlock()
	}
	c.bodies.mu.RLock()
	s.Bodies = len(c.bodies.keys)
	c.bodies.mu.RUnlock()
	return s
}
