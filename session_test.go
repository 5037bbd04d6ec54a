package portcc_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"portcc"
	"portcc/internal/features"
)

// tinySession returns a session scaled for sub-second tests.
func tinySession(opts ...portcc.Option) *portcc.Session {
	scale := portcc.Scale{Name: "t", Programs: []string{"crc", "bitcnts"},
		NumArchs: 3, NumOpts: 4, TargetInsns: 4000, Seed: 5}
	return portcc.NewSession(append([]portcc.Option{portcc.WithScale(scale)}, opts...)...)
}

// threeArchs returns XScale plus two legal cache variants.
func threeArchs() []portcc.Arch {
	a := portcc.XScale()
	b := a
	b.IL1Size = 4 << 10
	b.IL1Assoc = 4
	c := a
	c.DL1Size = 8 << 10
	c.DL1Assoc = 8
	return []portcc.Arch{a, b, c}
}

func TestExploreYieldsFullGridExactlyOnce(t *testing.T) {
	ctx := context.Background()
	s := tinySession(portcc.WithWorkers(4))
	req, err := s.NewExploreRequest(false)
	if err != nil {
		t.Fatal(err)
	}
	type cellKey struct{ p, o int }
	seen := map[cellKey]int{}
	archsSeen := 0
	for res, err := range s.Explore(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		seen[cellKey{res.ProgIndex, res.OptIndex}]++
		archsSeen += len(res.Results)
		if res.Program != req.Programs[res.ProgIndex] {
			t.Errorf("result names %q for program index %d", res.Program, res.ProgIndex)
		}
		if res.Runs < 1 {
			t.Error("non-positive run count")
		}
	}
	wantCells := len(req.Programs) * len(req.Opts)
	if len(seen) != wantCells {
		t.Errorf("%d distinct cells, want %d", len(seen), wantCells)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %+v yielded %d times", k, n)
		}
	}
	if want := len(req.Programs) * len(req.Opts) * len(req.Archs); archsSeen != want {
		t.Errorf("%d (cell, arch) results, want %d", archsSeen, want)
	}
}

// TestExploreMatchesRun: every cell of the streaming engine equals the
// per-event Run of its setting on each architecture, the reference the
// batched replay is written against.
func TestExploreMatchesRun(t *testing.T) {
	ctx := context.Background()
	s := tinySession()
	req, err := s.NewExploreRequest(false)
	if err != nil {
		t.Fatal(err)
	}
	for res, err := range s.Explore(ctx, req) {
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != len(req.Archs) {
			t.Fatalf("cell (%d,%d): %d results, want %d", res.ProgIndex, res.OptIndex, len(res.Results), len(req.Archs))
		}
		for i, a := range req.Archs {
			direct, err := s.Run(ctx, res.Program, res.Config, a)
			if err != nil {
				t.Fatal(err)
			}
			if direct != res.Results[i] {
				t.Fatalf("explore result (%d,%d,%d) differs from Run",
					res.ProgIndex, res.OptIndex, i)
			}
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to base
// (within slack), failing the test after the deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, started with %d: worker pool leaked", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGenerateCancellationDrainsPromptly(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the first cell completes: generation must stop
	// long before the full grid is evaluated.
	cells := 0
	s := tinySession(portcc.WithWorkers(2), portcc.WithProgress(func(p portcc.Progress) {
		cells++
		if p.Done == 1 {
			cancel()
		}
	}))
	start := time.Now()
	ds, err := s.GenerateDataset(ctx, false)
	elapsed := time.Since(start)
	if ds != nil {
		t.Error("cancelled generation returned a dataset")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var pe *portcc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry partial progress", err)
	}
	if pe.Total == 0 || pe.Done >= pe.Total {
		t.Errorf("implausible partial progress %d/%d", pe.Done, pe.Total)
	}
	// "Promptly": in-flight cells may finish, but nowhere near the full
	// grid's worth of work (the tiny grid is 2 programs x 5 settings).
	if cells >= pe.Total {
		t.Errorf("all %d cells ran despite cancellation", cells)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
	waitGoroutines(t, base)
}

func TestExploreEarlyBreakDrainsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	s := tinySession(portcc.WithWorkers(4))
	req, err := s.NewExploreRequest(false)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, err := range s.Explore(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		break
	}
	if got != 1 {
		t.Fatalf("loop body ran %d times after break", got)
	}
	waitGoroutines(t, base)
}

func TestExploreCancellationYieldsPartialError(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := tinySession(portcc.WithWorkers(2))
	req, err := s.NewExploreRequest(false)
	if err != nil {
		t.Fatal(err)
	}
	var terminal error
	results := 0
	for _, err := range s.Explore(ctx, req) {
		if err != nil {
			terminal = err
			continue
		}
		results++
		cancel()
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Fatalf("terminal yield %v, want context.Canceled", terminal)
	}
	if results == 0 {
		t.Error("no partial results before cancellation")
	}
	waitGoroutines(t, base)
}

func TestTypedErrorRoundTrips(t *testing.T) {
	ctx := context.Background()
	s := tinySession()

	if _, err := s.Run(ctx, "no-such-benchmark", portcc.O3(), portcc.XScale()); !errors.Is(err, portcc.ErrUnknownProgram) {
		t.Errorf("unknown program: got %v, want ErrUnknownProgram", err)
	}

	bad := portcc.XScale()
	bad.IL1Size = 12345
	if _, err := s.Run(ctx, "crc", portcc.O3(), bad); !errors.Is(err, portcc.ErrInvalidConfig) {
		t.Errorf("invalid arch: got %v, want ErrInvalidConfig", err)
	}
	if _, err := s.Speedup(ctx, "crc", portcc.O3(), bad); !errors.Is(err, portcc.ErrInvalidConfig) {
		t.Errorf("Speedup with invalid arch: got %v, want ErrInvalidConfig", err)
	}
	if _, err := s.OptimizeFor(ctx, "crc", portcc.XScale(), nil); !errors.Is(err, portcc.ErrInvalidConfig) {
		t.Errorf("OptimizeFor with a nil model: got %v, want ErrInvalidConfig", err)
	}

	// An unknown program inside an exploration grid surfaces as both the
	// sentinel and a located SimError.
	req, err := s.NewExploreRequest(false)
	if err != nil {
		t.Fatal(err)
	}
	req.Programs = append(req.Programs, "no-such-benchmark")
	var terminal error
	for _, err := range s.Explore(ctx, req) {
		if err != nil {
			terminal = err
		}
	}
	if !errors.Is(terminal, portcc.ErrUnknownProgram) {
		t.Errorf("explore with unknown program: got %v, want ErrUnknownProgram", terminal)
	}

	if _, err := portcc.LoadDataset("/no/such/dir/ds.gob"); err == nil {
		t.Error("missing dataset file accepted")
	}

	// Cancelled context before any work: plain context error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Run(cctx, "crc", portcc.O3(), portcc.XScale()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run: got %v", err)
	}
}

func TestExploreValidatesRequestUpfront(t *testing.T) {
	// Bad requests fail on the first yield, typed, before any work runs.
	s := tinySession()
	check := func(mutate func(*portcc.ExploreRequest), want error) {
		t.Helper()
		req, err := s.NewExploreRequest(false)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&req)
		yields := 0
		var terminal error
		for _, err := range s.Explore(context.Background(), req) {
			yields++
			terminal = err
		}
		if yields != 1 || !errors.Is(terminal, want) {
			t.Errorf("got %d yields, terminal %v; want 1 yield of %v", yields, terminal, want)
		}
	}
	check(func(r *portcc.ExploreRequest) { r.Archs[1].BTBSize = 7 }, portcc.ErrInvalidConfig)
	check(func(r *portcc.ExploreRequest) { r.Opts = nil }, portcc.ErrInvalidConfig)
	// A parameter level past the space used to pass and then panic the
	// compiler (index out of range [9] with length 4), killing the caller.
	check(func(r *portcc.ExploreRequest) { r.Opts[1].Params[0] = 9 }, portcc.ErrInvalidConfig)
}

// TestCompileAndRunCompilesOnce pins what cmd/portcc pays for its chosen
// setting: the -O3 probe and one compile, where Compile, Run and Speedup
// in turn compile it three times - and the same three answers.
func TestCompileAndRunCompilesOnce(t *testing.T) {
	ctx := context.Background()
	arch := portcc.XScale()
	tuned := portcc.O3()
	tuned.Flags[portcc.FScheduleInsns] = false

	three := tinySession()
	wantBin, err := three.Compile(ctx, "crc", tuned)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := three.Run(ctx, "crc", tuned, arch)
	if err != nil {
		t.Fatal(err)
	}
	wantSpeedup, err := three.Speedup(ctx, "crc", tuned, arch)
	if err != nil {
		t.Fatal(err)
	}
	if compiles, _ := three.Stats(); compiles != 4 {
		t.Fatalf("Compile, Run and Speedup compiled %d times, want 4 (probe + 3)", compiles)
	}

	s := tinySession()
	bin, res, speedup, err := s.CompileAndRun(ctx, "crc", tuned, arch)
	if err != nil {
		t.Fatal(err)
	}
	if compiles, sims := s.Stats(); compiles != 2 || sims != 2 {
		t.Errorf("CompileAndRun: %d compiles and %d simulations, want 2 and 2 (probe + setting, baseline + candidate)", compiles, sims)
	}
	if bin.TotalBytes != wantBin.TotalBytes || bin.PadBytes != wantBin.PadBytes || res != wantRes || speedup != wantSpeedup {
		t.Errorf("CompileAndRun answered (%d bytes, %d cycles, %v), the three calls (%d bytes, %d cycles, %v)",
			bin.TotalBytes, res.Cycles, speedup, wantBin.TotalBytes, wantRes.Cycles, wantSpeedup)
	}
	// -O3 compiles nothing beyond the probe, and unknown names stay typed.
	if _, _, v, err := s.CompileAndRun(ctx, "crc", portcc.O3(), arch); err != nil || v != 1 {
		t.Errorf("-O3 against itself: speedup %v, err %v; want exactly 1", v, err)
	}
	if compiles, _ := s.Stats(); compiles != 2 {
		t.Errorf("%d compiles after an -O3 CompileAndRun, want still 2", compiles)
	}
	if _, _, _, err := s.CompileAndRun(ctx, "no-such-program", tuned, arch); !errors.Is(err, portcc.ErrUnknownProgram) {
		t.Errorf("unknown program returned %v, want ErrUnknownProgram", err)
	}
}

// TestCompileAndRunHonoursCancelAfterBaseline: once the -O3 baseline of
// a (program, arch) is memoised nothing below CompileAndRun looks at
// ctx, so a cancelled call must stop at the door - no compile.
func TestCompileAndRunHonoursCancelAfterBaseline(t *testing.T) {
	s := tinySession()
	arch := portcc.XScale()
	tuned := portcc.O3()
	tuned.Flags[portcc.FScheduleInsns] = false
	if _, _, _, err := s.CompileAndRun(context.Background(), "crc", tuned, arch); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Stats()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tuned.Flags[portcc.FUnrollLoops] = true
	if _, _, _, err := s.CompileAndRun(cancelled, "crc", tuned, arch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CompileAndRun returned %v, want context.Canceled", err)
	}
	if compiles, _ := s.Stats(); compiles != before {
		t.Errorf("cancelled CompileAndRun compiled: %d compiles, want still %d", compiles, before)
	}
}

// TestSessionReplaysO3OncePerPair: the deployment sequence - profile,
// predict, measure - and every -O3 question after it share the
// session's one -O3 run of the pair, with a fresh session's answers.
func TestSessionReplaysO3OncePerPair(t *testing.T) {
	ctx := context.Background()
	_, model := tinyModel(t)
	arch := portcc.XScale()
	tuned := portcc.O3()
	tuned.Flags[portcc.FScheduleInsns] = false

	s := tinySession()
	cfg, err := s.OptimizeFor(ctx, "crc", arch, model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Speedup(ctx, "crc", tuned, arch); err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	perRun, err := s.CyclesPerRun(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, v, err := s.CompileAndRun(ctx, "crc", portcc.O3(), arch); err != nil || v != 1 {
		t.Fatalf("-O3 against itself: speedup %v, err %v; want exactly 1", v, err)
	}
	if _, sims := s.Stats(); sims != 2 {
		t.Errorf("%d simulations, want 2 (one -O3 run + the tuned candidate)", sims)
	}

	fresh := tinySession()
	wantRun, err := fresh.Run(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	wantPerRun, err := tinySession().CyclesPerRun(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if run != wantRun || perRun != wantPerRun {
		t.Errorf("memoised -O3 run: %d cycles, %v per run; a fresh session's %d, %v",
			run.Cycles, perRun, wantRun.Cycles, wantPerRun)
	}
	if want := model.Predict(features.Vector(arch, &wantRun)); cfg != want {
		t.Errorf("OptimizeFor chose %s, a prediction on a fresh -O3 run %s", cfg.Key(), want.Key())
	}
}

func TestSpeedupBaselineMemoised(t *testing.T) {
	ctx := context.Background()
	s := tinySession()
	arch := portcc.XScale()
	tuned := portcc.O3()
	tuned.Flags[portcc.FScheduleInsns] = false

	if _, err := s.Speedup(ctx, "crc", tuned, arch); err != nil {
		t.Fatal(err)
	}
	_, sims1 := s.Stats()
	if sims1 != 2 {
		t.Fatalf("first Speedup ran %d simulations, want 2 (baseline + candidate)", sims1)
	}
	// Further candidates on the same (program, arch) must not re-derive
	// the -O3 baseline: exactly one simulation each.
	tuned2 := portcc.O3()
	tuned2.Flags[portcc.FUnrollLoops] = true
	for i, cfg := range []portcc.OptConfig{tuned, tuned2} {
		before := sims1 + i
		if _, err := s.Speedup(ctx, "crc", cfg, arch); err != nil {
			t.Fatal(err)
		}
		if _, sims := s.Stats(); sims != before+1 {
			t.Errorf("candidate %d: %d simulations, want %d (baseline re-simulated?)", i, sims, before+1)
		}
	}
	// A different architecture is a different baseline.
	other := arch
	other.DL1Size = 8 << 10
	other.DL1Assoc = 4
	_, before := s.Stats()
	if _, err := s.Speedup(ctx, "crc", tuned, other); err != nil {
		t.Fatal(err)
	}
	if _, sims := s.Stats(); sims != before+2 {
		t.Errorf("new arch: %d simulations, want %d (fresh baseline + candidate)", sims, before+2)
	}
	// O3 against itself stays exactly 1 through the memoised path.
	v, err := s.Speedup(ctx, "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("O3 vs O3 speedup %v, want exactly 1", v)
	}
}

func TestGenerateDatasetMatchesScaleGenerate(t *testing.T) {
	// The Session path and the experiments.Scale path must produce the
	// identical dataset: same sampling, same cycle counts.
	ctx := context.Background()
	scale := portcc.Scale{Name: "t", Programs: []string{"crc", "qsort"},
		NumArchs: 2, NumOpts: 3, TargetInsns: 4000, Seed: 5}
	a, err := portcc.NewSession(portcc.WithScale(scale), portcc.WithWorkers(3)).GenerateDataset(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scale.Generate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Speedups {
		for ar := range a.Speedups[p] {
			for o := range a.Speedups[p][ar] {
				if a.Speedups[p][ar][o] != b.Speedups[p][ar][o] {
					t.Fatalf("speedup (%d,%d,%d) differs between Session and Scale paths", p, ar, o)
				}
			}
		}
	}
}

func TestConcurrentSpeedupSingleFlightsBaseline(t *testing.T) {
	// N concurrent Speedup calls for one (program, arch) must share one
	// -O3 baseline simulation: N candidate sims + 1 baseline, no more.
	ctx := context.Background()
	s := tinySession()
	arch := portcc.XScale()
	tuned := portcc.O3()
	tuned.Flags[portcc.FScheduleInsns] = false
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Speedup(ctx, "crc", tuned, arch)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, sims := s.Stats(); sims != n+1 {
		t.Errorf("%d simulations for %d concurrent Speedups, want %d (single baseline)", sims, n, n+1)
	}
}

func TestExploreRequestCellsDegenerate(t *testing.T) {
	var empty portcc.ExploreRequest
	if n := empty.Cells(); n != 0 {
		t.Errorf("empty request has %d cells, want 0", n)
	}
}

func TestBaselineNotPoisonedByOthersCancellation(t *testing.T) {
	// A caller whose context is live must not inherit a concurrent
	// caller's cancellation from the shared baseline entry, and a
	// cancelled baseline attempt must not be memoised.
	s := tinySession()
	arch := portcc.XScale()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Speedup(cancelled, "crc", portcc.O3(), arch); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Speedup: got %v", err)
	}
	v, err := s.Speedup(context.Background(), "crc", portcc.O3(), arch)
	if err != nil {
		t.Fatalf("live-context Speedup after a cancelled one: %v", err)
	}
	if v != 1 {
		t.Errorf("speedup %v, want 1", v)
	}
}

// TestSingleRunMethodsValidateSetting: a parameter level past the space
// is a typed refusal at every single-run entry point, not an index out
// of range inside the compiler.
func TestSingleRunMethodsValidateSetting(t *testing.T) {
	ctx := context.Background()
	s := tinySession()
	bad := portcc.O3()
	bad.Params[0] = 9
	arch := portcc.XScale()
	_, errCompile := s.Compile(ctx, "crc", bad)
	_, errRun := s.Run(ctx, "crc", bad, arch)
	_, errCycles := s.CyclesPerRun(ctx, "crc", bad, arch)
	_, errSpeedup := s.Speedup(ctx, "crc", bad, arch)
	for name, err := range map[string]error{"Compile": errCompile, "Run": errRun, "CyclesPerRun": errCycles, "Speedup": errSpeedup} {
		if !errors.Is(err, portcc.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", name, err)
		}
	}
}

// TestSessionOptionsReachExplore drives the exploration options through
// GenerateDataset, the path trainer takes: each must reach the engine.
func TestSessionOptionsReachExplore(t *testing.T) {
	ctx := context.Background()
	plain, err := tinySession().GenerateDataset(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// WithNaiveCompile bypasses the result store; without it the sweep
	// commits replays there.
	for _, naive := range []bool{true, false} {
		rs, err := portcc.OpenResultStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := []portcc.Option{portcc.WithResultStore(rs)}
		if naive {
			opts = append(opts, portcc.WithNaiveCompile())
		}
		ds, err := tinySession(opts...).GenerateDataset(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := ds.Fingerprint(); err != nil || fp != want {
			t.Errorf("naive=%v: fingerprint %.12s (%v), want the plain session's %.12s", naive, fp, err, want)
		}
		if puts := rs.Stats().Puts; naive != (puts == 0) {
			t.Errorf("naive=%v: %d store commits", naive, puts)
		}
		rs.Close()
	}

	// A shard nobody serves, tried once, fails the run typed.
	_, err = tinySession(portcc.WithShards("127.0.0.1:1"),
		portcc.WithShardRetry(portcc.RetryPolicy{MaxAttempts: 1})).GenerateDataset(ctx, false)
	if !errors.Is(err, portcc.ErrShardFailure) {
		t.Errorf("unreachable shard: got %v, want ErrShardFailure", err)
	}

	var last portcc.Progress
	if _, err := tinySession(portcc.WithProgress(func(p portcc.Progress) { last = p })).GenerateDataset(ctx, false); err != nil {
		t.Fatal(err)
	}
	if last.Total == 0 || last.Done != last.Total {
		t.Errorf("last progress report %+v, want Done == Total", last)
	}
	// A later nil callback replaces the earlier one.
	if _, err := tinySession(portcc.WithProgress(func(portcc.Progress) { t.Error("replaced callback called") }),
		portcc.WithProgress(nil)).GenerateDataset(ctx, false); err != nil {
		t.Fatal(err)
	}
}
