package resultcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v.(int) != 2 {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	c.Put("a", 10)
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Fatalf("Put over existing key did not replace: %v", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	s := c.Stats()
	if s.Hits != 3 || s.Misses != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1)
	c.Put("b", 2)
	// Touch a so b becomes the eviction victim.
	c.Get("a")
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("new entry missing")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCapacityClamp(t *testing.T) {
	c := New(0)
	if s := c.Stats(); s.Capacity != 1 {
		t.Fatalf("Capacity = %d, want 1", s.Capacity)
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestConcurrentHammer drives get/put/eviction from many goroutines at once;
// under -race it locks in that the cache is safe for the server's concurrent
// request handlers. Invalidation in the real system is "keys stop matching",
// so the workload includes disjoint per-goroutine keys (forced misses and
// evictions) alongside shared hot keys.
func TestConcurrentHammer(t *testing.T) {
	c := New(16)
	const goroutines = 8
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				hot := fmt.Sprintf("hot-%d", i%4)
				cold := fmt.Sprintf("cold-%d-%d", g, i)
				switch i % 4 {
				case 0:
					c.Put(hot, i)
				case 1:
					if v, ok := c.Get(hot); ok {
						if _, isInt := v.(int); !isInt {
							t.Errorf("unexpected value type %T", v)
							return
						}
					}
				case 2:
					c.Put(cold, i)
				case 3:
					c.Get(cold)
					c.Stats()
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 16 {
		t.Fatalf("cache grew past capacity: %+v", s)
	}
	if s.Hits+s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("hammer did not exercise the counters: %+v", s)
	}
}
