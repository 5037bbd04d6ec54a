package serve

import (
	"container/list"
	"sync"

	"portcc/internal/ml"
)

// answerCache is the LRU cache of served answers, keyed by (program,
// microarchitecture). An entry holds the encoded cached:true answer a
// model computed for the pair, tagged with that model. For a fixed model
// the answer is a pure function of the pair, and the
// collective-optimisation workload repeats pairs heavily across a fleet,
// so a repeat query under the same model writes the stored bytes: no
// profile lookup, no inference and no encoding. The feature vector is
// not kept: the evaluator's baseline slot holds the program's profile,
// which answers any architecture in about a microsecond, and builds it
// once however many first queries wait on it. A hit and an eviction are
// O(1): the entries form a recency list.
type answerCache struct {
	mu       sync.Mutex
	capacity int
	lru      list.List                // of *cacheEntry, front = coldest
	entries  map[string]*list.Element // key -> its lru element
}

type cacheEntry struct {
	key    string
	model  *ml.Model
	answer []byte
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{capacity: capacity, entries: map[string]*list.Element{}}
}

// get returns the answer stored for key when model computed it (nil
// otherwise), and whether key was answered before - under any model.
func (c *answerCache) get(key string, model *ml.Model) (answer []byte, seen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToBack(el)
	if e := el.Value.(*cacheEntry); e.model == model {
		answer = e.answer
	}
	return answer, true
}

// put stores answer, computed by model, for key, replacing what was
// stored, and evicts the coldest entries over capacity.
func (c *answerCache) put(key string, model *ml.Model, answer []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToBack(el)
		e := el.Value.(*cacheEntry)
		e.model, e.answer = model, answer
		return
	}
	c.entries[key] = c.lru.PushBack(&cacheEntry{key: key, model: model, answer: answer})
	for len(c.entries) > c.capacity {
		cold := c.lru.Remove(c.lru.Front()).(*cacheEntry)
		delete(c.entries, cold.key)
	}
}

// len returns the resident entry count.
func (c *answerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
