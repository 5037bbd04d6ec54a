package dataset

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"portcc/internal/opt"
	"portcc/internal/uarch"
)

// tinyRequest samples a small but real grid: multiple windows' worth of
// settings, -O3 included, two programs.
func tinyRequest(t *testing.T, opts int) ExploreRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	req := ExploreRequest{
		Programs: []string{"crc", "qsort"},
		Archs:    (uarch.Space{}).SampleN(rng, 3),
		Opts:     []opt.Config{opt.O3()},
		Eval:     EvalConfig{TargetInsns: 4_000, Seed: 1},
	}
	optRng := rand.New(rand.NewSource(22))
	for len(req.Opts) < opts {
		req.Opts = append(req.Opts, opt.Random(optRng))
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	return req
}

// collect folds an exploration stream into a deterministic map keyed by
// cell coordinates.
func collect(t *testing.T, req ExploreRequest, o ExploreOptions) map[[3]int]ExploreResult {
	t.Helper()
	out := map[[3]int]ExploreResult{}
	for res, err := range Explore(context.Background(), req, o) {
		if err != nil {
			t.Fatal(err)
		}
		out[[3]int{res.ProgIndex, res.OptIndex, res.ArchStart}] = res
	}
	return out
}

// TestBatchedExploreMatchesNaive is the end-to-end equivalence property:
// the batched sweep path must yield exactly the cells the naive per-cell
// path yields, with identical payloads, for both worker counts and for a
// sub-window arch batching.
func TestBatchedExploreMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		archB   int
	}{
		{"serial", 1, 0},
		{"pooled", 4, 0},
		{"archbatched", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tinyRequest(t, 21)
			req.ArchBatch = tc.archB
			naive := collect(t, req, ExploreOptions{Workers: tc.workers, Naive: true})
			batched := collect(t, req, ExploreOptions{Workers: tc.workers})
			if len(naive) != len(batched) {
				t.Fatalf("cell counts differ: naive %d, batched %d", len(naive), len(batched))
			}
			for k, nr := range naive {
				br, ok := batched[k]
				if !ok {
					t.Fatalf("cell %v missing from batched stream", k)
				}
				if !reflect.DeepEqual(nr, br) {
					t.Fatalf("cell %v differs:\nnaive   %+v\nbatched %+v", k, nr, br)
				}
			}
		})
	}
}

// TestBatchedDatasetBitIdentical generates a dataset through both paths
// and byte-compares the saved files - the same check CI performs with
// real binaries through the sharded path.
func TestBatchedDatasetBitIdentical(t *testing.T) {
	cfg := GenConfig{
		Programs: []string{"crc", "dijkstra", "qsort"},
		NumArchs: 3,
		NumOpts:  17,
		Seed:     5,
		Eval:     EvalConfig{TargetInsns: 4_000, Seed: 1},
	}
	dir := t.TempDir()
	paths := map[bool]string{}
	for _, naive := range []bool{false, true} {
		ds, err := GenerateWith(context.Background(), cfg, ExploreOptions{Workers: 2, Naive: naive})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, map[bool]string{false: "batched.gob", true: "naive.gob"}[naive])
		if err := ds.Save(p); err != nil {
			t.Fatal(err)
		}
		paths[naive] = p
	}
	a, err := os.ReadFile(paths[false])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[true])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("batched-path dataset differs from naive-path dataset")
	}
}

// TestSweepSavesPassRunsAndTraces asserts the batched path's work
// counters: the prefix trie must save pass executions, and twin binaries
// must save trace generations; the counters make both observable without
// a profiler.
func TestSweepSavesPassRunsAndTraces(t *testing.T) {
	req := tinyRequest(t, 33)
	req.Programs = []string{"crc"}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(req.Eval)
	sw := newSweepState(&req, 1)
	for _, c := range req.cells() {
		if _, err := runCellBatched(ev, sw, c); err != nil {
			t.Fatal(err)
		}
	}
	st := ev.Stats()
	if st.PassRunsSaved <= 0 {
		t.Errorf("PassRunsSaved = %d, want > 0 over %d settings", st.PassRunsSaved, len(req.Opts))
	}
	if st.PassRuns <= 0 {
		t.Errorf("PassRuns = %d, want > 0", st.PassRuns)
	}
	if st.Compiles != len(req.Opts)+1 { // settings + the -O3 probe
		t.Errorf("Compiles = %d, want %d", st.Compiles, len(req.Opts)+1)
	}
	if st.TraceReuses <= 0 {
		t.Errorf("TraceReuses = %d, want > 0 (crc sweeps share many binaries)", st.TraceReuses)
	}
	// Every window and program state must have been released.
	if len(sw.progs) != 0 {
		t.Errorf("%d program sweep states leaked", len(sw.progs))
	}
}

// TestPartialGridRunnerBoundedAndCorrect models a worker daemon that is
// handed only part of the grid (interleaved chunks, as sched.Remote
// deals them): results must still match the naive path cell for cell,
// and the sweep state must not retain unbounded windows or traces for
// the cells that never arrive - the memory-pinning regression a shard
// serving half a paper-scale grid would otherwise hit.
func TestPartialGridRunnerBoundedAndCorrect(t *testing.T) {
	req := tinyRequest(t, 40)
	cells := req.cells()

	naiveReq := req
	naiveReq.Naive = true
	naiveRun := naiveReq.RunnerStore(1, 0, nil)
	run, ev := req.InstrumentedRunnerStore(nil)

	sum := 0
	for i, c := range cells {
		// This "shard" serves chunks 0-7, 16-23, 32-39, ... of the grid.
		if (i/8)%2 == 1 {
			continue
		}
		got, err := run(0, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := naiveRun(0, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d (%+v): batched partial-grid result differs from naive", i, c)
		}
		sum++
	}
	if sum == 0 {
		t.Fatal("no cells served")
	}
	// The runner never saw the other half of the grid; retention must
	// still be bounded: no trace slots left pinned (every generated
	// trace was released after its replay) and at most the FIFO cap of
	// compiled windows alive.
	st := ev.Stats()
	if st.TraceReuses <= 0 {
		t.Errorf("TraceReuses = %d, want > 0", st.TraceReuses)
	}
	// Reach into the sweep state through a fresh runner to assert the
	// invariants structurally instead: build one directly.
	sw := newSweepState(&req, 1)
	for i := range cells {
		if (i/8)%2 == 1 {
			continue
		}
		if _, err := runCellBatched(ev, sw, cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	windows, traces := 0, 0
	sw.mu.Lock()
	for _, ps := range sw.progs {
		windows += len(ps.windows)
		traces += len(ps.traces)
	}
	if built := len(sw.built); built > maxBuiltWindows {
		t.Errorf("%d built windows retained, cap is %d", built, maxBuiltWindows)
	}
	sw.mu.Unlock()
	if windows > maxBuiltWindows {
		t.Errorf("%d windows retained after a partial run, cap is %d", windows, maxBuiltWindows)
	}
	if traces != 0 {
		t.Errorf("%d trace slots still pinned after a partial run, want 0", traces)
	}

	// With sub-grid arch batches a partial runner can be left holding
	// ranges that never arrive; generated traces must still be bounded
	// (idle ones evict and regenerate on demand).
	abReq := req
	abReq.ArchBatch = 1
	abCells := abReq.cells()
	abSw := newSweepState(&abReq, 1)
	abEv := NewEvaluator(abReq.Eval)
	for i := range abCells {
		if i%3 == 0 { // serve every third cell: most binaries keep unserved ranges
			continue
		}
		if _, err := runCellBatched(abEv, abSw, abCells[i]); err != nil {
			t.Fatal(err)
		}
	}
	liveTraces := 0
	abSw.mu.Lock()
	for _, ps := range abSw.progs {
		for _, sl := range ps.traces {
			if sl.tr != nil {
				liveTraces++
			}
		}
	}
	abSw.mu.Unlock()
	if liveTraces > maxLiveTraces+1 {
		t.Errorf("%d live traces retained by a partial arch-batched run, cap is %d", liveTraces, maxLiveTraces)
	}
}

// TestSweepWindowSize pins the window heuristic's bounds, and that a
// window short of the sweep is a whole number of index blocks.
func TestSweepWindowSize(t *testing.T) {
	for _, tc := range []struct{ opts, slots, want int }{
		{61, 1, 61},
		{61, 2, 32},
		{61, 3, 24},
		{201, 2, 64},
		{61, 8, 8},
		{1000, 1, 64},
		{1000, 4, 64},
		{5, 1, 5},
		{5, 8, 5},
	} {
		if got := sweepWindowSize(tc.opts, tc.slots); got != tc.want {
			t.Errorf("sweepWindowSize(%d, %d) = %d, want %d", tc.opts, tc.slots, got, tc.want)
		}
	}
}

// TestExploreResultsGobSafe ensures shared result slices survive gob
// transport (the shard path encodes each cell independently, so sharing
// between twin cells on the worker must be invisible on the wire).
func TestExploreResultsGobSafe(t *testing.T) {
	req := tinyRequest(t, 9)
	for res, err := range Explore(context.Background(), req, ExploreOptions{Workers: 1}) {
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res); err != nil {
			t.Fatal(err)
		}
		var back ExploreResult
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatal("gob round-trip changed a batched result")
		}
	}
}
