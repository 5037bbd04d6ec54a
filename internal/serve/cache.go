package serve

import (
	"container/list"
	"sync"
)

// featureCache is the LRU cache of profiled feature vectors, keyed by
// (program, microarchitecture). The feature vector is the expensive
// half of a prediction - a replay of the program's resident -O3 trace,
// after a compile and a trace generation on the program's first query -
// and the collective-optimisation workload repeats (program, uarch)
// pairs heavily across a fleet, so repeat queries must skip the
// profiling run entirely. Concurrent misses on the same key are
// single-flighted: one caller profiles, the rest wait for its result.
// A hit and an eviction are O(1): the entries form a recency list.
type featureCache struct {
	mu       sync.Mutex
	capacity int
	lru      list.List                // of *cacheEntry, front = coldest
	vecs     map[string]*list.Element // key -> its lru element
	flights  map[string]*flight
}

type cacheEntry struct {
	key string
	x   []float64
}

type flight struct {
	done chan struct{}
	x    []float64
	err  error
}

func newFeatureCache(capacity int) *featureCache {
	return &featureCache{
		capacity: capacity,
		vecs:     map[string]*list.Element{},
		flights:  map[string]*flight{},
	}
}

// get returns the cached feature vector for key, computing it with
// compute on a miss. hit reports whether profiling was skipped - a
// cache hit proper, or a coalesced wait behind a concurrent miss.
// Failed computes are not cached; every later get retries.
func (c *featureCache) get(key string, compute func() ([]float64, error)) (x []float64, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.vecs[key]; ok {
		c.lru.MoveToBack(e)
		c.mu.Unlock()
		return e.Value.(*cacheEntry).x, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.x, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.x, f.err = compute()
	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insert(key, f.x)
	}
	c.mu.Unlock()
	close(f.done)
	return f.x, false, f.err
}

// len returns the resident entry count.
func (c *featureCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vecs)
}

// insert adds a vector, evicting the coldest entries over capacity.
// Called with c.mu held.
func (c *featureCache) insert(key string, x []float64) {
	if _, ok := c.vecs[key]; ok {
		return
	}
	c.vecs[key] = c.lru.PushBack(&cacheEntry{key, x})
	for len(c.vecs) > c.capacity {
		cold := c.lru.Remove(c.lru.Front()).(*cacheEntry)
		delete(c.vecs, cold.key)
	}
}
