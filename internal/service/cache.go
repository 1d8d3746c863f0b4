package service

import (
	"container/list"
	"sync"
)

// Key identifies a coloring result. The cache only ever holds results
// of algorithms whose harness registration carries Deterministic=true:
// for those, a fixed seed makes the output independent of the worker
// count and of scheduling (the paper's determinism guarantee), so
// (graph, version, algorithm, seed, epsilon) fully determines the
// coloring — Procs is deliberately NOT part of the key: a result
// computed at p=8 serves a p=2 request byte-for-byte. The
// non-deterministic schemes (JP-ASL, ITRB, GM) bypass the cache
// entirely (see Manager.resolve).
//
// Version is the graph's mutation version: every applied mutation
// batch bumps it, so a coloring cached before a mutation can never be
// returned for a request that sees the mutated graph. Never-mutated
// graphs stay at version 0.
type Key struct {
	Graph     string
	Version   uint64
	Algorithm string
	Seed      uint64
	Epsilon   float64
}

// Entry is one cached coloring.
type Entry struct {
	// Colors is the full verified coloring (immutable once cached).
	Colors []uint32
	// NumColors is the distinct color count.
	NumColors int
	// Rounds is the run's parallel round count.
	Rounds int
	// ComputeSeconds is how long the original (uncached) run took.
	ComputeSeconds float64
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a size-bounded LRU map from Key to Entry, safe for concurrent
// use. Capacity counts entries, not bytes: colorings on different graphs
// vary in size, but the serving layer registers few graphs, so an entry
// bound is the honest knob (-cache-entries on cmd/colord).
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheNode struct {
	key   Key
	entry *Entry
}

// NewCache returns a cache holding at most capacity entries
// (capacity <= 0 disables caching: every Get misses, Put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}
}

// Get returns the cached entry for k, marking it most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheNode).entry, true
}

// Peek returns the cached entry for k like Get, but a lookup that
// finds nothing is NOT counted as a miss. The key-routing read path
// uses it on off-home placement members: an absent entry there is the
// expected steady state (the key lives on its home node), and counting
// it would make the cache hit rate report routing topology instead of
// cache effectiveness.
func (c *Cache) Peek(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheNode).entry, true
}

// Put inserts or refreshes k, evicting the least recently used entry
// when over capacity.
func (c *Cache) Put(k Key, e *Entry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheNode).entry = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheNode{key: k, entry: e})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheNode).key)
		c.evictions++
	}
}

// DeleteGraph drops every entry cached for the named graph (any
// version, algorithm, seed or epsilon) and returns how many were
// removed. Mutations call it: the version key already guarantees
// stale entries cannot be served, so this is purely a memory release —
// colorings of overwritten versions would otherwise linger until LRU
// eviction.
func (c *Cache) DeleteGraph(graph string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		node := el.Value.(*cacheNode)
		if node.key.Graph == graph {
			c.ll.Remove(el)
			delete(c.items, node.key)
			removed++
		}
		el = next
	}
	return removed
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
	}
}
