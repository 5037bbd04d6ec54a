package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"portcc/internal/ml"
	"portcc/internal/pcerr"
)

func TestFeatureCacheLRUEviction(t *testing.T) {
	c := newAnswerCache(2)
	c.put("a", nil, []byte("1"))
	c.put("b", nil, []byte("2"))
	// Touch a so b is the coldest, then insert c: b must evict.
	if _, seen := c.get("a", nil); !seen {
		t.Fatal("a should be cached")
	}
	c.put("c", nil, []byte("3"))
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if answer, seen := c.get("a", nil); !seen || string(answer) != "1" {
		t.Errorf("a (recently touched) reads %q, seen=%v", answer, seen)
	}
	if answer, seen := c.get("b", nil); seen || answer != nil {
		t.Error("b (coldest) should have been evicted")
	}
	// Another model's answer is seen but not served, and a put replaces
	// it in place.
	m := new(ml.Model)
	if answer, seen := c.get("c", m); !seen || answer != nil {
		t.Errorf("c under another model: %q, seen=%v; want seen, no bytes", answer, seen)
	}
	c.put("c", m, []byte("3'"))
	if answer, _ := c.get("c", m); string(answer) != "3'" || c.len() != 2 {
		t.Errorf("replaced c reads %q with %d entries", answer, c.len())
	}
}

// TestConcurrentFirstQueriesShareOneProfile: eight clients ask a fresh
// server for one (program, arch) pair at once. The evaluator's baseline
// slot builds the program's profile once - one compile, two trace
// generations (probe and resident trace) and one covering replay - and
// the cache ends with one entry. Each answer is the pair's first answer
// or its cached:true twin.
func TestConcurrentFirstQueriesShareOneProfile(t *testing.T) {
	ds, m, info := testDataset(t)
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 8; c.MaxQueue = 64 })
	h := s.Handler()
	spec := archSpecFor(ds.Archs[0])
	program, arch := ds.Programs[0], ds.Archs[0].String()
	body, _ := json.Marshal(PredictRequest{Program: program, Arch: &spec})

	const clients = 8
	bodies := make([][]byte, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
			bodies[c] = w.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()

	p, err := s.ev.Profile(program)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compiles != 1 || st.TraceGens != 2 || st.Simulations != p.Sims() {
		t.Errorf("ledger %+v, want 1 compile, 2 trace generations and %d simulations", st, p.Sims())
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
	x := servedFeatures(t, s, program, spec)
	first := freshAnswer(t, m, info.DatasetSHA256, program, arch, x, false)
	twin := freshAnswer(t, m, info.DatasetSHA256, program, arch, x, true)
	for c, got := range bodies {
		if !bytes.Equal(got, first) && !bytes.Equal(got, twin) {
			t.Errorf("client %d:\n got %s\nwant %s\n  or %s", c, got, first, twin)
		}
	}
	if hits, misses := s.mCacheHit.Value(), s.mCacheMiss.Value(); hits+misses != clients || misses == 0 {
		t.Errorf("cache counters hit=%d miss=%d, want %d answers with at least one miss", hits, misses, clients)
	}
}

// TestUnknownProgramStoresNothing: a failed query is not cached - the
// repeat fails the same way, again a miss - and leaves no entry.
func TestUnknownProgramStoresNothing(t *testing.T) {
	ds, _, _ := testDataset(t)
	s := newTestServer(t, nil)
	spec := archSpecFor(ds.Archs[0])
	for i := 0; i < 2; i++ {
		if w, _ := postPredict(t, s.Handler(), PredictRequest{Program: "no-such-program", Arch: &spec}); w.Code != http.StatusNotFound {
			t.Fatalf("query %d: HTTP %d %s, want 404", i, w.Code, w.Body)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("cache holds %d entries after two failures, want 0", n)
	}
	if hits := s.mCacheHit.Value(); hits != 0 {
		t.Errorf("%d failed queries counted as hits", hits)
	}
}

func TestGateShedAndRelease(t *testing.T) {
	g := newGate(1, 1)
	ctx := context.Background()
	if err := g.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Second caller queues; simulate it by cancelling its wait.
	waitCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- g.acquire(waitCtx) }()
	for g.queueDepth() != 1 {
		runtime.Gosched()
	}
	// Third caller: queue full, immediate typed shed.
	if err := g.acquire(ctx); !errors.Is(err, pcerr.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v", err)
	}
	g.release()
	if err := g.acquire(ctx); err != nil {
		t.Fatalf("gate did not recover after release: %v", err)
	}
}
