package serve

import (
	"container/list"
	"sync"

	"portcc/internal/ml"
)

// featureCache is the LRU cache of served answers, keyed by (program,
// microarchitecture). An entry holds the pair's feature vector - a
// lookup in the program's profile, after its one covering replay on the
// program's first query - and the encoded cached:true answer a model
// computed from it, tagged with that model. For a fixed model the answer
// is a pure function of the pair, and the collective-optimisation
// workload repeats pairs heavily across a fleet, so a repeat query under
// the same model writes the stored bytes: no inference and no encoding.
// After a hot reload the stored vector answers again, without profiling,
// and the new answer replaces the old. Concurrent misses on the same key
// are single-flighted: one caller profiles, the rest wait for its
// vector. A hit and an eviction are O(1): the entries form a recency
// list.
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
	// answer is the encoded cached:true response model computed from x
	// (nil: none stored).
	model  *ml.Model
	answer []byte
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
// compute on a miss, and the answer stored beside it when model computed
// that answer (nil otherwise). hit reports whether profiling was skipped
// - a cache hit proper, or a coalesced wait behind a concurrent miss.
// Failed computes are not cached; every later get retries.
func (c *featureCache) get(key string, model *ml.Model, compute func() ([]float64, error)) (x []float64, answer []byte, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.vecs[key]; ok {
		c.lru.MoveToBack(el)
		e := el.Value.(*cacheEntry)
		if e.model == model {
			answer = e.answer
		}
		c.mu.Unlock()
		return e.x, answer, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.x, nil, true, f.err
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
	return f.x, nil, false, f.err
}

// store keeps answer, computed by model, beside key's vector, replacing
// what was stored; a key evicted since its get stores nothing.
func (c *featureCache) store(key string, model *ml.Model, answer []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.vecs[key]; ok {
		e := el.Value.(*cacheEntry)
		e.model, e.answer = model, answer
	}
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
	c.vecs[key] = c.lru.PushBack(&cacheEntry{key: key, x: x})
	for len(c.vecs) > c.capacity {
		cold := c.lru.Remove(c.lru.Front()).(*cacheEntry)
		delete(c.vecs, cold.key)
	}
}
