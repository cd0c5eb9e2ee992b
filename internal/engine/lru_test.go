package engine

import (
	"strconv"
	"sync"
	"testing"
)

// lruState reads c's gauges and eviction count.
func lruState(c *LRU[int]) (entries, cost int64, evictions uint64) {
	return c.Entries.Load(), c.Cost.Load(), c.Evictions.Load()
}

// TestLRUCostBudget: Put evicts least-recently-used entries while the total
// cost is over the budget, a replace in place re-costs its entry (and may
// evict others), Get promotes, and Remove and Clear keep the gauges exact.
func TestLRUCostBudget(t *testing.T) {
	c := NewLRU[int](10)
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.Put(k, i, 2)
	}
	if n, cost, ev := lruState(c); n != 5 || cost != 10 || ev != 0 {
		t.Fatalf("five entries at cost 2 under budget 10: %d entries, cost %d, %d evictions", n, cost, ev)
	}
	// Get promotes a; b is now the least recently used.
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("f", 5, 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived: Get did not promote a")
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived: cost 11 is over the budget")
	}
	if n, cost, ev := lruState(c); n != 4 || cost != 9 || ev != 2 {
		t.Fatalf("after f: %d entries, cost %d, %d evictions", n, cost, ev)
	}
	// The order is now d, e, a, f (oldest first). Re-costing a from 2 to 6
	// promotes it and brings the total to 13: d and e go.
	c.Put("a", 10, 6)
	if n, cost, ev := lruState(c); n != 2 || cost != 9 || ev != 4 {
		t.Fatalf("after re-costing a: %d entries, cost %d, %d evictions", n, cost, ev)
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) after replace = %d, %v", v, ok)
	}
	// Shrinking an entry evicts nothing.
	c.Put("a", 11, 1)
	if n, cost, ev := lruState(c); n != 2 || cost != 4 || ev != 4 {
		t.Fatalf("after shrinking a: %d entries, cost %d, %d evictions", n, cost, ev)
	}

	if !c.Remove("f") || c.Remove("f") {
		t.Fatal("Remove reports presence once")
	}
	if n, cost, _ := lruState(c); n != 1 || cost != 1 {
		t.Fatalf("after Remove: %d entries, cost %d", n, cost)
	}
	c.Put("g", 7, 4)
	c.Clear()
	if n, cost, ev := lruState(c); n != 0 || cost != 0 || ev != 4 {
		t.Fatalf("after Clear: %d entries, cost %d, %d evictions", n, cost, ev)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived Clear")
	}
	// An entry dearer than the whole budget is evicted at once.
	c.Put("h", 8, 11)
	if n, cost, ev := lruState(c); n != 0 || cost != 0 || ev != 5 {
		t.Fatalf("after an over-budget Put: %d entries, cost %d, %d evictions", n, cost, ev)
	}
	if hits, misses := c.Hits.Load(), c.Misses.Load(); hits != 2 || misses != 3 {
		t.Fatalf("%d hits, %d misses, want 2 and 3", hits, misses)
	}
}

// TestLRUConcurrent runs Get, Put, Remove and Clear from several goroutines
// (for -race) and then checks that the gauges still describe the contents.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := strconv.Itoa((g*7 + i) % 50)
				switch i % 10 {
				case 0:
					c.Remove(k)
				case 1:
					if i%500 == 1 {
						c.Clear()
					}
				case 2, 3, 4:
					c.Put(k, i, int64(1+i%3))
				default:
					if v, ok := c.Get(k); ok && v < 0 {
						t.Errorf("Get(%s) = %d", k, v)
					}
				}
			}
		}()
	}
	wg.Wait()
	if cost := c.Cost.Load(); cost > 64 {
		t.Fatalf("cost %d over the budget of 64", cost)
	}
	var n int64
	for k := 0; k < 50; k++ {
		if c.Remove(strconv.Itoa(k)) {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no entry survived the run")
	}
	if entries, cost := c.Entries.Load(), c.Cost.Load(); entries != 0 || cost != 0 {
		t.Fatalf("after removing all %d entries: %d entries, cost %d", n, entries, cost)
	}
}
