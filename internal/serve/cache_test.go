package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"portcc/internal/pcerr"
)

func TestFeatureCacheLRUEviction(t *testing.T) {
	c := newFeatureCache(2)
	put := func(key string, v float64) {
		if _, _, _, err := c.get(key, nil, func() ([]float64, error) { return []float64{v}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	// Touch a so b is the coldest, then insert c: b must evict.
	if _, _, hit, _ := c.get("a", nil, nil); !hit {
		t.Fatal("a should be cached")
	}
	put("c", 3)
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if _, _, hit, _ := c.get("a", nil, func() ([]float64, error) { return []float64{0}, nil }); !hit {
		t.Error("a (recently touched) was evicted")
	}
	recomputed := false
	if _, _, hit, _ := c.get("b", nil, func() ([]float64, error) { recomputed = true; return []float64{0}, nil }); hit || !recomputed {
		t.Error("b (coldest) should have been evicted and recomputed")
	}
}

func TestFeatureCacheErrorsNotCached(t *testing.T) {
	c := newFeatureCache(4)
	boom := errors.New("boom")
	if _, _, hit, err := c.get("k", nil, func() ([]float64, error) { return nil, boom }); hit || !errors.Is(err, boom) {
		t.Fatalf("hit=%v err=%v, want miss with boom", hit, err)
	}
	// The failure must not poison the key.
	x, _, hit, err := c.get("k", nil, func() ([]float64, error) { return []float64{9}, nil })
	if err != nil || hit || x[0] != 9 {
		t.Fatalf("retry after failure: x=%v hit=%v err=%v", x, hit, err)
	}
}

// TestFeatureCacheSingleFlight pins that concurrent misses on one key
// run compute exactly once; the waiters count as hits (they skipped
// profiling).
func TestFeatureCacheSingleFlight(t *testing.T) {
	c := newFeatureCache(4)
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, hit, err := c.get("k", nil, func() ([]float64, error) {
				computes.Add(1)
				<-release
				return []float64{7}, nil
			})
			if err != nil || x[0] != 7 {
				t.Errorf("x=%v err=%v", x, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Let one goroutine enter compute, then release them all.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", computes.Load())
	}
	if hits.Load() != 7 {
		t.Fatalf("%d waiters counted as hits, want 7", hits.Load())
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
