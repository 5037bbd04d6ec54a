package dataset

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/ir"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/prog"
	"portcc/internal/trace"
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
func collect(t *testing.T, req ExploreRequest, o ExploreOptions) map[[2]int]ExploreResult {
	t.Helper()
	out := map[[2]int]ExploreResult{}
	for res, err := range Explore(context.Background(), req, o) {
		if err != nil {
			t.Fatal(err)
		}
		out[[2]int{res.ProgIndex, res.OptIndex}] = res
	}
	return out
}

// TestBatchedExploreMatchesNaive is the end-to-end equivalence property:
// the batched sweep path must yield exactly the cells the naive per-cell
// path yields, with identical payloads, for both worker counts.
func TestBatchedExploreMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pooled", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := tinyRequest(t, 21)
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

// TestSweepCountsCompilesAndTwins asserts the batched path's work
// counters: every setting compiles once, and twin binaries save trace
// generations; the counters make both observable without a profiler.
func TestSweepCountsCompilesAndTwins(t *testing.T) {
	req := tinyRequest(t, 33)
	req.Programs = []string{"crc"}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(req.Eval)
	sw := newSweepState(&req)
	for i := range req.Cells() {
		if _, err := runCellBatched(ev, sw, req.cell(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := ev.Stats()
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
// and the sweep state must not retain unbounded windows for the cells
// that never arrive - the memory-pinning regression a shard serving half
// a paper-scale grid would otherwise hit. (It cannot retain a trace at
// all: TestSweepGeneratesEachBinaryOnce.)
func TestPartialGridRunnerBoundedAndCorrect(t *testing.T) {
	req := tinyRequest(t, 40)

	naiveReq := req
	naiveReq.Naive = true
	naiveRun := naiveReq.RunnerStore(1, 0, nil)
	run, ev := req.InstrumentedRunnerStore(nil)

	sum := 0
	for i := range req.Cells() {
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
			t.Fatalf("cell %d (%+v): batched partial-grid result differs from naive", i, req.cell(i))
		}
		sum++
	}
	if sum == 0 {
		t.Fatal("no cells served")
	}
	// The runner never saw the other half of the grid; retention must
	// still be bounded: at most the FIFO cap of compiled windows alive.
	st := ev.Stats()
	if st.TraceReuses <= 0 {
		t.Errorf("TraceReuses = %d, want > 0", st.TraceReuses)
	}
	// Reach into the sweep state through a fresh runner to assert the
	// invariants structurally instead: build one directly.
	sw := newSweepState(&req)
	for i := range req.Cells() {
		if (i/8)%2 == 1 {
			continue
		}
		if _, err := runCellBatched(ev, sw, req.cell(i)); err != nil {
			t.Fatal(err)
		}
	}
	windows := 0
	sw.mu.Lock()
	for _, ps := range sw.progs {
		windows += len(ps.windows)
	}
	if built := len(sw.built); built > maxBuiltWindows {
		t.Errorf("%d built windows retained, cap is %d", built, maxBuiltWindows)
	}
	sw.mu.Unlock()
	if windows > maxBuiltWindows {
		t.Errorf("%d windows retained after a partial run, cap is %d", windows, maxBuiltWindows)
	}
}

// distinctBinaries counts the (program, fingerprint) pairs among the
// listed cells that are not in except - the replays a sweep over those
// cells owes - with fingerprints taken by compiling every setting
// directly, no evaluator in the loop.
func distinctBinaries(t *testing.T, req ExploreRequest, cells, except []int) int64 {
	t.Helper()
	type binary struct {
		prog int
		fp   codegen.Fingerprint
	}
	set := func(cells []int) map[binary]bool {
		out := map[binary]bool{}
		mods := map[int]*ir.Module{}
		for _, i := range cells {
			c := req.cell(i)
			if mods[c.prog] == nil {
				m, err := prog.Build(req.Programs[c.prog])
				if err != nil {
					t.Fatal(err)
				}
				mods[c.prog] = m
			}
			p, err := core.Compile(mods[c.prog], &req.Opts[c.opt])
			if err != nil {
				t.Fatal(err)
			}
			fp, _ := codegen.FingerprintInto(p, nil)
			out[binary{c.prog, fp}] = true
		}
		return out
	}
	owed, have := set(cells), set(except)
	for b := range have {
		delete(owed, b)
	}
	return int64(len(owed))
}

// typeHolds reports whether a value of type t can reach one of type
// target through fields, elements and pointers.
func typeHolds(t, target reflect.Type, seen map[reflect.Type]bool) bool {
	if t == target {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return typeHolds(t.Elem(), target, seen)
	case reflect.Map:
		return typeHolds(t.Key(), target, seen) || typeHolds(t.Elem(), target, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHolds(t.Field(i).Type, target, seen) {
				return true
			}
		}
	}
	return false
}

// TestSweepGeneratesEachBinaryOnce pins the trace lifetime the sweep is
// built on: a trace is generated for one replay and nothing else, so the
// generations of a run are its -O3 probes plus one per distinct binary
// that actually replayed - cold, over a store that already holds half
// the grid, and on the interleaved part of a grid a shard is dealt, at
// one slot and at three racing ones - and the sweep state has nowhere to
// keep a trace once the replay is over.
func TestSweepGeneratesEachBinaryOnce(t *testing.T) {
	req := tinyRequest(t, 40)
	var all, dealt []int
	for i := range req.Cells() {
		all = append(all, i)
		if (i/8)%2 == 0 {
			dealt = append(dealt, i)
		}
	}
	for _, slots := range []int{1, 3} {
		check := func(name string, st *ResultStore, cells, stored []int) {
			t.Helper()
			_, l := ledgerRunCells(t, req, slots, st, cells)
			replays := distinctBinaries(t, req, cells, stored)
			if l.probeCompiles > int64(len(req.Programs)) {
				t.Errorf("%s, %d slots: %d -O3 probes for %d programs", name, slots, l.probeCompiles, len(req.Programs))
			}
			if l.TraceGens != l.probeCompiles+replays || l.Simulations != int(replays)*len(req.Archs) {
				t.Errorf("%s, %d slots: %d generations and %d simulations, want %d probes + %d distinct binaries, each replayed once over %d architectures",
					name, slots, l.TraceGens, l.Simulations, l.probeCompiles, replays, len(req.Archs))
			}
		}
		check("cold", nil, all, nil)
		check("partial grid", nil, dealt, nil)
		st := openStore(t, t.TempDir())
		check("filling half the store", st, dealt, nil)
		check("over the half-populated store", st, all, dealt)
	}
	if typeHolds(reflect.TypeOf(sweepState{}), reflect.TypeOf(trace.Trace{}), map[reflect.Type]bool{}) {
		t.Error("the sweep state can hold a trace: a trace must not outlive its replay")
	}
}

// TestSweepSweepsEachDataStreamOnce pins the data-stream memo beside the
// twin memo: of a program's distinct binaries, only the first to issue a
// given sequence of loads and stores sweeps the data caches - recounted
// here from trace.Generate over the distinct binaries, no evaluator's
// ledger in the loop - every other replay is answered from the program's
// memo, the cells are byte-identical to the naive path's, which never
// sees a memo, and the memo goes when the program's last cell does.
func TestSweepSweepsEachDataStreamOnce(t *testing.T) {
	req := tinyRequest(t, 40)

	type ident struct { // a program's binary or data stream, by hash
		prog int
		sum  [sha256.Size]byte
	}
	binaries, streams := map[ident]bool{}, map[ident]bool{}
	probe := NewEvaluator(req.Eval)
	for pi, name := range req.Programs {
		sl, err := probe.baseline(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range req.Opts {
			p, err := core.Compile(sl.m, &req.Opts[i])
			if err != nil {
				t.Fatal(err)
			}
			if fp, _ := codegen.FingerprintInto(p, nil); !binaries[ident{pi, fp}] {
				binaries[ident{pi, fp}] = true
				h := sha256.New()
				for _, ev := range trace.Generate(p, sl.traceConfig(probe.cfg)).Events {
					if op := isa.Op(ev.Op); op.IsMem() {
						fmt.Fprintln(h, ev.Addr, op == isa.OpStore)
					}
				}
				streams[ident{pi, [sha256.Size]byte(h.Sum(nil))}] = true
			}
		}
	}
	if len(streams) == len(binaries) {
		t.Fatal("every binary has its own data stream: the sample exercises no reuse")
	}

	cells := func(r ExploreRequest) ([]byte, Stats) {
		run, ev := r.InstrumentedRunnerStore(nil)
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for i := range r.Cells() {
			res, err := run(0, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes(), ev.Stats()
	}
	got, st := cells(req)
	replays := int64(st.Simulations / len(req.Archs))
	if st.DataSweeps != int64(len(streams)) || st.DataSweeps+st.DataSweepReuses != replays || replays != int64(len(binaries)) {
		t.Errorf("%d data sweeps and %d reuses over %d replays, want %d distinct streams among %d distinct binaries",
			st.DataSweeps, st.DataSweepReuses, replays, len(streams), len(binaries))
	}
	naive := req
	naive.Naive = true
	want, nst := cells(naive)
	if !bytes.Equal(got, want) {
		t.Error("cells answered from the data-stream memo differ from the naive path's")
	}
	if nst.DataSweepReuses != 0 || nst.DataSweeps != int64(req.Cells()) {
		t.Errorf("naive path: %d data sweeps and %d reuses over %d cells, want every cell swept", nst.DataSweeps, nst.DataSweepReuses, req.Cells())
	}

	// The memo lives in the program's sweep state and nowhere else, so it
	// is gone exactly when that state is.
	memo := reflect.TypeOf(cpu.DataMemo{})
	if !typeHolds(reflect.TypeOf(progSweep{}), memo, map[reflect.Type]bool{}) || typeHolds(reflect.TypeOf(Evaluator{}), memo, map[reflect.Type]bool{}) {
		t.Error("the data-stream memo must be held by progSweep and by no evaluator")
	}
	ev, sw := NewEvaluator(req.Eval), newSweepState(&req)
	for i := range req.Cells() {
		if _, err := runCellBatched(ev, sw, req.cell(i)); err != nil {
			t.Fatal(err)
		}
		if c := req.cell(i); (sw.progs[c.prog] != nil) != (c.opt < len(req.Opts)-1) {
			t.Fatalf("after cell %d (%+v): program state present = %v", i, c, sw.progs[c.prog] != nil)
		}
	}
}

// allCells lists every dispatch index of req.
func allCells(req ExploreRequest) []int {
	all := make([]int, req.Cells())
	for i := range all {
		all[i] = i
	}
	return all
}

// TestWindowCompilesOnEverySlot: a window the index cannot answer is
// compiled by every slot that reaches it, setting by setting, and the
// work is the same work at every slot count - each setting once, one
// probe per program, the same generations, replays and twins - with
// cells identical to the naive path's. The hook holds the run's first
// setting compile until a second slot has compiled in the same window
// (the first cells of a run all share one), so that sharing is a
// property of the state machine here, not a likelihood of the scheduler.
func TestWindowCompilesOnEverySlot(t *testing.T) {
	req := tinyRequest(t, 21)
	req.Opts = req.Opts[1:] // no -O3 setting: every -O3 compile below is a probe
	naive := collect(t, req, ExploreOptions{Workers: 1, Naive: true})
	optIndex := map[opt.Config]int{}
	for i, c := range req.Opts {
		optIndex[c] = i
	}
	if len(optIndex) != len(req.Opts) {
		t.Fatal("the sample repeats a setting")
	}

	var oneSlot ledger
	for _, slots := range []int{1, 2, 3, 8} {
		var mu sync.Mutex
		compiled := map[opt.Config]int{}
		slotsOf := map[int]map[int]bool{} // window start -> slots that compiled one of its settings
		first, gate := slots > 1, make(chan struct{})
		var open sync.Once
		run, evs := hookedRunner(&req, slots, nil, func(slot int, c *opt.Config) error {
			if *c == o3 {
				return nil
			}
			mu.Lock()
			compiled[*c]++
			w := optIndex[*c] / indexBlock * indexBlock
			if slotsOf[w] == nil {
				slotsOf[w] = map[int]bool{}
			}
			slotsOf[w][slot] = true
			hold, shared := first, len(slotsOf[0]) > 1
			first = false
			mu.Unlock()
			if shared {
				open.Do(func() { close(gate) })
			}
			if hold {
				<-gate
			}
			return nil
		})
		got, errs := driveCells(run, slots, allCells(req))
		if len(errs) != 0 {
			t.Fatalf("%d slots: %v", slots, errs)
		}
		if !reflect.DeepEqual(got, naive) {
			t.Fatalf("%d slots: cells differ from the naive path's", slots)
		}
		var l ledger
		l.add(evs)
		if slots == 1 {
			oneSlot = l
		}
		if want := len(req.Programs) * (len(req.Opts) + 1); l.Compiles != want || l.probeCompiles != int64(len(req.Programs)) {
			t.Errorf("%d slots: %d compiles, %d of them probes; want %d and %d", slots, l.Compiles, l.probeCompiles, want, len(req.Programs))
		}
		for i, c := range req.Opts {
			if compiled[c] != len(req.Programs) {
				t.Errorf("%d slots: setting %d compiled %d times for %d programs", slots, i, compiled[c], len(req.Programs))
			}
		}
		if l != oneSlot {
			t.Errorf("%d slots: ledger %+v, at one slot %+v", slots, l, oneSlot)
		}
		if slots > 1 && len(slotsOf[0]) < 2 {
			t.Errorf("%d slots: one slot compiled the whole first window", slots)
		}
	}
}

// TestCompileFailuresStayWhereTheyHappen is the error half of the
// window's state machine. A setting whose compile fails fails its own
// cells typed, wakes whoever waits for it, poisons no sibling and keeps
// its block - only its block - out of the index; a failed -O3 probe or
// module build fails every cell of the program alike.
func TestCompileFailuresStayWhereTheyHappen(t *testing.T) {
	req := tinyRequest(t, 21)
	ref := collect(t, req, ExploreOptions{Workers: 1, Naive: true})
	boom := errors.New("test: compile refused")
	const bad = 10
	fails := func(t *testing.T, err error, prog, setting int, cause error) {
		t.Helper()
		var se *pcerr.SimError
		if !errors.As(err, &se) || se.Program != req.Programs[prog] || se.Setting != setting || !errors.Is(err, cause) {
			t.Errorf("cell (%d, %d) returned %v; want a SimError of its own wrapping %v", prog, setting, err, cause)
		}
	}
	for _, slots := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("setting/%d-slots", slots), func(t *testing.T) {
			dir := t.TempDir()
			run, _ := hookedRunner(&req, slots, openStore(t, dir), func(_ int, c *opt.Config) error {
				if *c == req.Opts[bad] {
					return boom
				}
				return nil
			})
			got, errs := driveCells(run, slots, allCells(req))
			if len(errs) != len(req.Programs) {
				t.Fatalf("%d cells failed, want one per program: %v", len(errs), errs)
			}
			for p := range req.Programs {
				fails(t, errs[p*len(req.Opts)+bad], p, bad, boom)
			}
			for k, want := range ref {
				if k[1] != bad && !reflect.DeepEqual(got[k], want) {
					t.Fatalf("sibling cell %v differs from the naive path's", k)
				}
			}
			// The rerun finds every block but the failed setting's.
			rs := openStore(t, dir)
			if again, _ := ledgerRun(t, req, slots, rs); !reflect.DeepEqual(again, ref) {
				t.Fatal("rerun differs from the naive path")
			}
			if h, m, _ := rs.IndexStats(); m != int64(len(req.Programs)) || h != blocksOf(req)-m {
				t.Errorf("rerun index ledger %d hits, %d misses; want only the failed setting's block missing per program", h, m)
			}
		})
		t.Run(fmt.Sprintf("probe/%d-slots", slots), func(t *testing.T) {
			for _, st := range []*ResultStore{nil, openStore(t, t.TempDir())} {
				run, _ := hookedRunner(&req, slots, st, func(_ int, c *opt.Config) error {
					if *c == o3 {
						return boom
					}
					return nil
				})
				got, errs := driveCells(run, slots, allCells(req))
				if len(got) != 0 || len(errs) != req.Cells() {
					t.Fatalf("%d cells completed over a failing probe, %d failed", len(got), len(errs))
				}
				for i, err := range errs {
					fails(t, err, req.cell(i).prog, req.cell(i).opt, boom)
				}
			}
		})
		t.Run(fmt.Sprintf("module/%d-slots", slots), func(t *testing.T) {
			broken := req
			broken.Programs = []string{req.Programs[0], "no-such-program"} // past Validate
			for _, st := range []*ResultStore{nil, openStore(t, t.TempDir())} {
				run, _ := broken.runner(slots, 1, st)
				got, errs := driveCells(run, slots, allCells(broken))
				if len(got) != len(req.Opts) || len(errs) != len(req.Opts) {
					t.Fatalf("%d cells completed, %d failed; want one program each", len(got), len(errs))
				}
				for i, err := range errs {
					var se *pcerr.SimError
					if !errors.As(err, &se) || se.Program != "no-such-program" || !errors.Is(err, pcerr.ErrUnknownProgram) {
						t.Errorf("cell %d returned %v; want a SimError wrapping ErrUnknownProgram", i, err)
					}
				}
				for k, r := range got {
					if !reflect.DeepEqual(r, ref[k]) {
						t.Fatalf("cell %v of the healthy program differs", k)
					}
				}
			}
		})
	}
}
