package engine

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// LRU is a synchronized least-recently-used cache bounded by a cost budget:
// each entry carries the cost its Put gave it, and Put evicts
// least-recently-used entries while the total is over the budget. It backs
// every cache in the system: the engine's compiled plans and the pdms
// answers and reformulations, which cost 1 per entry (a count bound), and
// netpeer's fragments, which cost their estimated bytes. The zero value is
// unusable; use NewLRU.
type LRU[V any] struct {
	mu     sync.Mutex
	budget int64
	ll     *list.List
	items  map[string]*list.Element

	// Hits and Misses count Get's lookups, and Evictions the entries Put
	// dropped to get back under the budget. Entries and Cost describe the
	// current contents; they are written under mu, and Cost is the
	// budget's running total.
	Hits, Misses, Evictions obs.Counter
	Entries, Cost           obs.Gauge
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// NewLRU returns an empty cache whose entries may cost budget in total.
func NewLRU[V any](budget int64) *LRU[V] {
	return &LRU[V]{budget: budget, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached value and whether it was present, promoting the
// entry to most-recently-used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.Misses.Inc()
		var zero V
		return zero, false
	}
	c.Hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts or replaces the value for key at the given cost, as the
// most-recently-used entry, then evicts least-recently-used entries while
// the total cost is over the budget.
func (c *LRU[V]) Put(key string, val V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry[V])
		c.Cost.Add(cost - ent.cost)
		ent.val, ent.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
		c.Cost.Add(cost)
		c.Entries.Set(int64(c.ll.Len()))
	}
	for c.Cost.Load() > c.budget && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.Evictions.Inc()
	}
}

// Remove drops key's entry and reports whether there was one.
func (c *LRU[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.removeLocked(el)
	}
	return ok
}

// Clear drops every entry. The counters survive.
func (c *LRU[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.Entries.Set(0)
	c.Cost.Set(0)
}

func (c *LRU[V]) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*lruEntry[V])
	delete(c.items, ent.key)
	c.Cost.Add(-ent.cost)
	c.Entries.Set(int64(c.ll.Len()))
}
