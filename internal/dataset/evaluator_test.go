package dataset

import (
	"math/rand"
	"sync"
	"testing"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// freshO3 is the independent oracle for the resident baseline: build,
// compile at -O3, probe one run, derive the run count, generate and
// replay, with no evaluator in the loop. It returns the full-length
// trace alongside the result.
func freshO3(t *testing.T, name string, cfg EvalConfig, a uarch.Config) (cpu.Result, *trace.Trace) {
	t.Helper()
	cfg = cfg.withDefaults()
	m, err := prog.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		t.Fatal(err)
	}
	runs := cfg.TargetInsns / trace.Generate(p, trace.Config{Runs: 1, MaxInsns: cfg.MaxInsns, Seed: cfg.Seed}).Insns()
	if runs < 1 {
		runs = 1
	}
	if runs > 8 {
		runs = 8
	}
	tr := trace.Generate(p, trace.Config{Runs: runs, MaxInsns: cfg.MaxInsns, Seed: cfg.Seed})
	return cpu.Simulate(tr, a), tr
}

// TestResidentBaselineMatchesFreshPipeline replays every program of the
// suite on three sampled architectures through one evaluator and checks
// each result against the fresh pipeline - and the ledger against the
// claim: one compile, one probe and one full-length generation per
// program, one replay per request, and no more bytes resident than the
// suite's -O3 traces.
func TestResidentBaselineMatchesFreshPipeline(t *testing.T) {
	cfg := EvalConfig{TargetInsns: 4_000, Seed: 1}
	ev := NewEvaluator(cfg)
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(5)), 3)
	o3 := opt.O3()
	names := prog.Names()
	var suiteBytes int64
	for _, name := range names {
		for i, a := range archs {
			got, err := ev.Run(name, &o3, a)
			if err != nil {
				t.Fatal(err)
			}
			want, tr := freshO3(t, name, cfg, a)
			if got != want {
				t.Errorf("%s on %s: resident replay differs from the fresh pipeline", name, a)
			}
			if i == 0 {
				suiteBytes += traceBytes(tr)
			}
		}
	}
	st := ev.Stats()
	n := len(names)
	if st.Compiles != n || st.TraceGens != int64(2*n) || st.Simulations != 3*n {
		t.Errorf("ledger %+v, want %d compiles, %d generations, %d simulations", st, n, 2*n, 3*n)
	}
	if st.BaselineTraces != int64(n) || st.BaselineTraceBytes != suiteBytes {
		t.Errorf("%d baselines / %d bytes resident, want %d / %d (the suite's -O3 traces)",
			st.BaselineTraces, st.BaselineTraceBytes, n, suiteBytes)
	}
}

// TestConcurrentFirstTouchSingleFlights is the serving pattern the slot
// exists for: the feature cache single-flights per (program, arch), so
// eight first-touch misses on one program at eight architectures reach
// the evaluator together. They must share one -O3 compile, one probe
// and one full-length trace.
func TestConcurrentFirstTouchSingleFlights(t *testing.T) {
	// A target long enough for several runs per trace: the full-length
	// generation then takes long enough for the others to pile up on it.
	cfg := EvalConfig{TargetInsns: 60_000, Seed: 1}
	ev := NewEvaluator(cfg)
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(6)), 8)
	o3 := opt.O3()
	got := make([]cpu.Result, len(archs))
	errs := make([]error, len(archs))
	var wg sync.WaitGroup
	for i := range archs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ev.Run("crc", &o3, archs[i])
		}(i)
	}
	wg.Wait()
	for i, a := range archs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want, _ := freshO3(t, "crc", cfg, a); got[i] != want {
			t.Errorf("arch %d: concurrent replay differs from the fresh pipeline", i)
		}
	}
	if st := ev.Stats(); st.Compiles != 1 || st.TraceGens != 2 || st.Simulations != len(archs) {
		t.Errorf("ledger %+v, want 1 compile, 2 generations (probe + full-length), %d simulations", st, len(archs))
	}
}

// TestConcurrentProfileSingleFlights is the prediction server's first
// touch: eight goroutines ask for one program's profile at once and
// share one -O3 compile, one full-length trace and one covering replay,
// and the profile answers every architecture as the fresh per-event
// pipeline does.
func TestConcurrentProfileSingleFlights(t *testing.T) {
	cfg := EvalConfig{TargetInsns: 60_000, Seed: 1}
	ev := NewEvaluator(cfg)
	archs := uarch.Space{Extended: true}.SampleN(rand.New(rand.NewSource(8)), 8)
	got := make([]*cpu.Profile, len(archs))
	errs := make([]error, len(archs))
	var wg sync.WaitGroup
	for i := range archs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ev.Profile("crc")
		}(i)
	}
	wg.Wait()
	for i, a := range archs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got another profile", i)
		}
		r, err := got[i].Result(a)
		if want, _ := freshO3(t, "crc", cfg, a); err != nil || r != want {
			t.Errorf("arch %d: profile says %+v (%v), the fresh pipeline %+v", i, r, err, want)
		}
	}
	if st := ev.Stats(); st.Compiles != 1 || st.TraceGens != 2 || st.Simulations != got[0].Sims() || st.DataSweeps != 1 {
		t.Errorf("ledger %+v, want 1 compile, 2 generations (probe + full-length), one batched replay of %d simulations", st, got[0].Sims())
	}
	if _, err := ev.Profile("no-such-program"); err == nil {
		t.Error("profile of an unknown program: want an error")
	}
}

// TestRunCommitsEveryProfile is the store-backed serving defect: once
// the -O3 trace was resident Run skipped the store, so K architectures
// of one program committed one entry and a restarted server
// re-simulated the other K-1.
func TestRunCommitsEveryProfile(t *testing.T) {
	cfg := EvalConfig{TargetInsns: 4_000, Seed: 1}
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(7)), 5)
	o3 := opt.O3()
	dir := t.TempDir()
	var want []cpu.Result

	first := openStore(t, dir)
	ev1 := NewEvaluator(cfg)
	ev1.SetStore(first)
	for _, a := range archs {
		r, err := ev1.Run("crc", &o3, a)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if s := first.Stats(); s.Puts != int64(len(archs)) {
		t.Fatalf("%d entries committed for %d architectures", s.Puts, len(archs))
	}
	if s := ev1.Stats(); s.Simulations != len(archs) || s.Compiles != 1 || s.TraceGens != 2 {
		t.Fatalf("cold ledger %+v, want %d simulations of one resident trace", s, len(archs))
	}
	first.Close()

	second := openStore(t, dir)
	ev2 := NewEvaluator(cfg)
	ev2.SetStore(second)
	for i, a := range archs {
		r, err := ev2.Run("crc", &o3, a)
		if err != nil {
			t.Fatal(err)
		}
		if r != want[i] {
			t.Errorf("arch %d: stored replay differs", i)
		}
	}
	if s, ss := ev2.Stats(), second.Stats(); ss.Hits != int64(len(archs)) || s.Simulations != 0 || s.TraceGens > 1 {
		t.Fatalf("warm ledger %+v, store %+v, want %d store hits, no simulation, no generation beyond the probe", s, ss, len(archs))
	}
}

// TestCompileGeneratesNoTrace: a caller that wants the binary pays for
// the compile and nothing else - no trace of the tuned setting, and for
// -O3 not even a compile, the slot's binary is handed out.
func TestCompileGeneratesNoTrace(t *testing.T) {
	ev := NewEvaluator(EvalConfig{TargetInsns: 4_000, Seed: 1})
	o3, tuned := opt.O3(), opt.O3()
	tuned.Flags[0] = !tuned.Flags[0]
	if _, err := ev.Run("crc", &o3, uarch.XScale()); err != nil { // touch the program
		t.Fatal(err)
	}
	before := ev.Stats()
	p, err := ev.Compile("crc", &tuned)
	if err != nil || p == nil {
		t.Fatalf("Compile: %v, %v", p, err)
	}
	base, err := ev.Compile("crc", &o3)
	if err != nil || base == p {
		t.Fatalf("Compile -O3: %v, tuned binary returned: %v", err, base == p)
	}
	after := ev.Stats()
	if after.TraceGens != before.TraceGens || after.Compiles != before.Compiles+1 {
		t.Errorf("ledger %+v -> %+v, want one compile (the tuned setting) and no generation", before, after)
	}
}
