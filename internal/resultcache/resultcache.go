// Package resultcache provides the bounded LRU that memoizes finished
// anonymization runs across requests. Anonymization is deterministic — the
// same dataset content under the same canonical policy, algorithm and
// resolved parameters always yields the same release — so a release computed
// once can be served to every later request with the same key, skipping the
// job queue and the algorithm entirely.
//
// The cache itself is key/value agnostic: callers build the key from the
// dataset content fingerprint (dataset.Table.Fingerprint), the canonical
// policy encoding and the resolved run parameters, and store whatever value
// reproduces the response. Because the dataset fingerprint changes whenever
// the content does, no explicit invalidation hook is needed — a replaced or
// mutated dataset simply stops matching its old entries, which age out of
// the LRU.
//
// All operations are safe for concurrent use. Hit, miss and eviction
// counters are kept for operational visibility (the server surfaces them on
// /healthz).
package resultcache

import (
	"container/list"
	"sync"
)

// Cache is a bounded, concurrency-safe LRU memoizing computed results by
// key. The zero value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

// entry is one key/value pair threaded through the recency list.
type entry struct {
	key   string
	value any
}

// New returns an empty cache bounded to capacity entries. Capacities below
// one are clamped to one (callers that want caching off should not construct
// a cache at all).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the value stored under key and whether it was present, marking
// the entry most recently used. Every call counts as a hit or a miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Put stores value under key, marking it most recently used. Storing over an
// existing key replaces its value. When the cache is full the least recently
// used entry is evicted.
func (c *Cache) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).value = value
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, value: value})
}

// Len returns the number of entries currently cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes since construction.
	Hits, Misses int64
	// Evictions counts entries displaced by capacity pressure (replacing an
	// existing key is not an eviction).
	Evictions int64
	// Entries and Capacity describe current occupancy.
	Entries, Capacity int
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.cap,
	}
}
