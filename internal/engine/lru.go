package engine

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// LRU is a synchronized fixed-capacity least-recently-used cache. It backs
// the engine's compiled-plan cache and the pdms answer and reformulation
// caches; values are opaque. The zero value is unusable; use NewLRU.
type LRU struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
	// hits and misses are the owner's counters, counted by Get.
	hits, misses *obs.Counter
}

type lruEntry struct {
	key string
	val any
}

// NewLRU returns an empty cache holding at most capacity entries
// (minimum 1) that counts every Get into hits or misses.
func NewLRU(capacity int, hits, misses *obs.Counter) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), items: map[string]*list.Element{}, hits: hits, misses: misses}
}

// Get returns the cached value and whether it was present, promoting the
// entry to most-recently-used.
func (c *LRU) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or replaces the value for key, evicting the least-recently-
// used entry when over capacity.
func (c *LRU) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the current number of entries.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
