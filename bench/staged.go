package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/experiments"
	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// genProbes selects the layer probes a generation workload's traced
// pass runs: the layers the workload leans on. The others read 0.
type genProbes struct {
	loo     bool   // staged leave-one-out and the figure values
	compile bool   // prog, core, codegen and trace probes
	replay  string // "a12" or "wide": which cpu probes
	model   bool   // ml and features probes
}

// drawPrograms picks the staged pass's programs: a seeded draw of 12 of
// the grid's n (all of them in -smoke shape), kept in grid order.
func drawPrograms(rc *runConfig, n int) []int {
	k := min(12, n)
	if rc.smoke {
		k = n
	}
	idx := rand.New(rand.NewSource(rc.seed)).Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// tracedGeneration is the traced pass of a storeless generation
// workload: one measured generate (for the dataset the staged pass must
// reproduce, and for the memory counters), the staged walk over a
// seeded draw of programs, the same cells through the package's own
// single-slot runner (work counters, and the wall time the staged sum
// is checked against), then the layer probes.
func tracedGeneration(ctx context.Context, rc *runConfig, tr *tracer, g gridSpec, probes genProbes) (*result, error) {
	env, err := setupGrid(g, rc.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	ck := &res.checker
	m := res.Metrics

	ds, mem, genTime, err := measuredGenerate(ctx, env.cfg, dataset.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	res.Fingerprint, err = ds.Fingerprint()
	if err != nil {
		return nil, err
	}
	sims := float64(env.req.Cells() * len(env.req.Archs))
	m.set("dataset.generate_ms", ms(genTime))
	m.set("dataset.heap_peak_mb", float64(mem.peakHeap)/(1<<20))
	m.set("dataset.allocs_per_sim", float64(mem.mallocs)/sims)
	if err := probeDatasetFile(m, ds, rc.workdir); err != nil {
		return nil, err
	}

	draw := drawPrograms(rc, len(env.req.Programs))
	st := &stagedPass{tr: tr, ds: ds, env: env}
	if err := st.walk(draw); err != nil {
		ck.failf("staged pass: %v", err)
	}
	st.report(m)
	if err := instrumentedPass(m, env, draw, st.rootTotal(), ""); err != nil {
		return nil, err
	}

	if probes.compile {
		probeCompile(m, env, rc)
	}
	switch probes.replay {
	case "a12":
		probeReplay(m, env, rc, false)
	case "wide":
		probeReplay(m, env, rc, true)
	}
	if probes.model {
		if err := probeModel(m, ds, rc); err != nil {
			return nil, err
		}
	}
	if probes.loo {
		if err := stagedLOO(ctx, tr, m, ck, ds); err != nil {
			return nil, err
		}
	}
	res.Attempted = len(draw) * len(env.req.Opts)
	if !ck.ok() {
		res.Failed = res.Attempted
	}
	return res, nil
}

// memDelta is what a generate cost the allocator.
type memDelta struct {
	mallocs  uint64
	peakHeap uint64
}

// measuredGenerate runs one GenerateWith between two MemStats readings,
// sampling the in-use heap every 10 ms for its peak.
func measuredGenerate(ctx context.Context, cfg dataset.GenConfig, o dataset.ExploreOptions) (*dataset.Dataset, memDelta, time.Duration, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapInuse)
			}
		}
	}()
	t0 := time.Now()
	ds, err := dataset.GenerateWith(ctx, cfg, o)
	d := time.Since(t0)
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&after)
	return ds, memDelta{mallocs: after.Mallocs - before.Mallocs, peakHeap: max(peak, after.HeapInuse)}, d, err
}

// stagedPass walks programs through the layer boundaries in the
// evaluator's order, single-threaded, one span per call, and checks
// that what comes out is the dataset's own numbers.
type stagedPass struct {
	tr  *tracer
	ds  *dataset.Dataset
	env *genEnv
	// rs, when set, is consulted before every trace generation and fed
	// after every replay, as the sweep runner does (fleet-store).
	rs *dataset.ResultStore

	settings int // settings batch-compiled
	binaries int // fingerprints taken
	events   int // trace events generated
}

// stagedWindow is the sweep runner's single-slot window rule: the whole
// sweep in one batch compile, at most 64 settings at a time.
func stagedWindow(opts int) int { return min(max(opts, 8), 64, opts) }

func (st *stagedPass) walk(programs []int) error {
	for _, p := range programs {
		if err := st.program(p); err != nil {
			return fmt.Errorf("%s: %w", st.ds.Programs[p], err)
		}
	}
	return nil
}

func (st *stagedPass) program(p int) error {
	tr, ds := st.tr, st.ds
	name := ds.Programs[p]
	root := tr.start(0, "dataset", "window")
	defer tr.end(root)

	s := tr.start(root, "prog", "prog.Build")
	mod, err := prog.Build(name)
	tr.end(s)
	if err != nil {
		return err
	}

	// The -O3 probe fixes the complete-run count for every setting.
	o3 := opt.O3()
	s = tr.start(root, "core", "core.Compile")
	probeBin, err := core.Compile(mod, &o3)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.start(root, "trace", "trace.GenerateInto")
	probe := trace.Generate(probeBin, traceConfig(ds, 1))
	tr.end(s)
	perRun := probe.Insns()
	runs := deriveRuns(perRun, ds.Cfg.Eval.TargetInsns)
	if runs != ds.Runs[p] {
		return fmt.Errorf("runs %d, dataset says %d", runs, ds.Runs[p])
	}
	tcfg := traceConfig(ds, runs)
	evalCfg := ds.Cfg.Eval
	evalCfg.MaxInsns = tcfg.MaxInsns

	nO := len(ds.Opts)
	cyc := make([][]float64, nO) // cyc[o][a], cycles per run
	byFP := map[codegen.Fingerprint][]float64{}
	var scratch []byte
	w := stagedWindow(nO)
	for start := 0; start < nO; start += w {
		end := min(start+w, nO)
		cfgs := make([]*opt.Config, end-start)
		for i := range cfgs {
			cfgs[i] = &ds.Opts[start+i]
		}
		s = tr.start(root, "core", "core.CompileBatch")
		bins, errs, _ := core.CompileBatch(mod, cfgs)
		tr.end(s)
		st.settings += len(cfgs)
		for i, bin := range bins {
			if errs[i] != nil {
				return errs[i]
			}
			var fp codegen.Fingerprint
			s = tr.start(root, "codegen", "codegen.FingerprintInto")
			fp, scratch = codegen.FingerprintInto(bin, scratch)
			tr.end(s)
			st.binaries++
			if c, ok := byFP[fp]; ok {
				cyc[start+i] = c
				continue
			}
			results, ok := st.storeGet(root, fp, runs, evalCfg)
			trRuns := runs
			if !ok {
				s = tr.start(root, "trace", "trace.GenerateInto")
				t := trace.Get(runs*perRun + perRun/2 + 256)
				trace.GenerateInto(t, bin, tcfg)
				tr.end(s)
				st.events += t.Insns()
				s = tr.start(root, "cpu", "cpu.SimulateBatchWith")
				results = cpu.SimulateBatchWith(t, ds.Archs, 1)
				tr.end(s)
				trRuns = max(t.Runs, 1)
				trace.Put(t)
				st.storePut(root, fp, trRuns, evalCfg, results)
			}
			c := make([]float64, len(results))
			for a := range results {
				c[a] = float64(results[a].Cycles) / float64(trRuns)
			}
			byFP[fp], cyc[start+i] = c, c
			if start+i == 0 {
				for a := range results {
					s = tr.start(root, "features", "features.Vector")
					x := features.Vector(ds.Archs[a], &results[a])
					tr.end(s)
					if !equalVec(x, ds.Features[p][a]) {
						return fmt.Errorf("arch %d features differ from the dataset's", a)
					}
				}
			}
		}
	}
	for a := range ds.Archs {
		for o := 1; o < nO; o++ {
			want := float32(cyc[0][a] / cyc[o][a])
			if math.Float32bits(want) != math.Float32bits(ds.Speedups[p][a][o]) {
				return fmt.Errorf("arch %d setting %d: staged speedup %v, dataset says %v", a, o, want, ds.Speedups[p][a][o])
			}
		}
	}
	return nil
}

func (st *stagedPass) storeGet(root int, fp codegen.Fingerprint, runs int, cfg dataset.EvalConfig) ([]cpu.Result, bool) {
	if st.rs == nil {
		return nil, false
	}
	s := st.tr.start(root, "store", "ResultStore.Get")
	defer st.tr.end(s)
	return st.rs.Get(fp, runs, cfg, st.ds.Archs)
}

func (st *stagedPass) storePut(root int, fp codegen.Fingerprint, runs int, cfg dataset.EvalConfig, results []cpu.Result) {
	if st.rs == nil {
		return
	}
	s := st.tr.start(root, "store", "ResultStore.Put")
	st.rs.Put(fp, runs, cfg, st.ds.Archs, results)
	st.tr.end(s)
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rootTotal is the wall time of the staged walk: the sum of its roots.
func (st *stagedPass) rootTotal() time.Duration { return st.tr.totals()["window"] }

// report turns the walk's spans into the share and rate metrics. A
// share is a layer group's self time over the walk's total.
func (st *stagedPass) report(m metrics) {
	self := st.tr.selfTimes()
	group := map[string]time.Duration{
		"compile": self["core"] + self["codegen"],
		"trace":   self["trace"],
		"replay":  self["cpu"],
		"store":   self["store"],
		"other":   self["prog"] + self["features"] + self["dataset"],
	}
	var total time.Duration
	for _, d := range group {
		total += d
	}
	for name, d := range group {
		m.set("dataset.share."+name, d.Seconds()/total.Seconds())
	}
	dur := st.tr.totals()
	perSec := func(n int, name string) float64 {
		if dur[name] <= 0 {
			return 0
		}
		return float64(n) / dur[name].Seconds()
	}
	m.set("core.compile_batch_per_s", perSec(st.settings, "core.CompileBatch"))
	m.set("codegen.fingerprint_per_s", perSec(st.binaries, "codegen.FingerprintInto"))
	m.set("trace.gen_mev_per_s", perSec(st.events, "trace.GenerateInto")/1e6)
}

// instrumentedPass runs the staged pass's cells through the dataset
// package's own single-slot runner: its evaluator's ledger gives the
// exact work counters, and its wall time is what the staged spans must
// add up to (dataset.attributed_ratio within 0.8-1.2, or the staged
// walk is not the pipeline). With storeDir set the cells run twice
// against a fresh store there, cold then warm, as the staged walk did.
func instrumentedPass(m metrics, env *genEnv, draw []int, staged time.Duration, storeDir string) error {
	req := env.req
	req.Programs = make([]string, len(draw))
	for i, p := range draw {
		req.Programs[i] = env.req.Programs[p]
	}
	var rs *dataset.ResultStore
	passes := 1
	if storeDir != "" {
		var err error
		if rs, err = dataset.OpenResultStore(storeDir, 0); err != nil {
			return err
		}
		defer rs.Close()
		passes = 2
	}
	var s dataset.Stats
	var wall time.Duration
	for pass := 0; pass < passes; pass++ {
		run, ev := req.InstrumentedRunnerStore(rs)
		t0 := time.Now()
		for i := 0; i < req.Cells(); i++ {
			if _, err := run(0, i); err != nil {
				return err
			}
		}
		wall += time.Since(t0)
		p := ev.Stats()
		s.Compiles += p.Compiles
		s.Simulations += p.Simulations
		s.PassRuns += p.PassRuns
		s.PassRunsSaved += p.PassRunsSaved
		s.TraceReuses += p.TraceReuses
		s.TraceGens += p.TraceGens
		s.TraceEvents += p.TraceEvents
	}
	m.set("dataset.attributed_ratio", staged.Seconds()/wall.Seconds())
	m.set("dataset.compiles", float64(s.Compiles))
	m.set("dataset.simulations", float64(s.Simulations))
	m.set("dataset.trace_reuse_ratio", float64(s.TraceReuses)/float64(max(s.Compiles, 1)))
	m.set("core.pass_runs", float64(s.PassRuns))
	m.set("core.pass_runs_saved", float64(s.PassRunsSaved))
	m.set("trace.events", float64(s.TraceEvents))
	m.set("trace.gens", float64(s.TraceGens))
	m.set("trace.reuses", float64(s.TraceReuses))
	return nil
}

// probeDatasetFile times the dataset's file round trip.
func probeDatasetFile(m metrics, ds *dataset.Dataset, dir string) error {
	path := filepath.Join(dir, "dataset.gob")
	t0 := time.Now()
	if err := ds.Save(path); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := dataset.Load(path); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := ds.Fingerprint(); err != nil {
		return err
	}
	m.set("dataset.save_ms", ms(t1.Sub(t0)))
	m.set("dataset.load_ms", ms(t2.Sub(t1)))
	m.set("dataset.fingerprint_ms", ms(time.Since(t2)))
	return nil
}

// stagedLOO is experiments.Predict taken apart per program: the model
// queries, then one Evaluator.Trace and one batched replay per distinct
// predicted setting. It must land on experiments.Predict's speedups.
func stagedLOO(ctx context.Context, tr *tracer, m metrics, ck *checker, ds *dataset.Dataset) error {
	t0 := time.Now()
	pr, err := experiments.Predict(ctx, ds)
	if err != nil {
		return err
	}
	m.set("experiments.loo_ms", ms(time.Since(t0)))
	t0 = time.Now()
	figs := figuresOf(ds, pr)
	m.set("experiments.figures_ms", ms(time.Since(t0)))
	figs.checkShape(ck)
	m.set("experiments.fig4_best_avg", figs.fig4BestAvg)
	m.set("experiments.fig5_corr", figs.fig5Corr)
	m.set("experiments.fig6_model_avg", figs.fig6ModelAvg)
	m.set("experiments.fig6_pct_of_max", figs.fig6PctOfMax)

	pairs, err := ds.TrainingPairs()
	if err != nil {
		return err
	}
	model := ml.Train(pairs)
	ev := dataset.NewEvaluator(ds.Cfg.Eval)
	ev.SetSweepWorkers(1)
	distinct := 0
	for p, name := range ds.Programs {
		root := tr.start(0, "experiments", "loo")
		groups := map[string][]int{}
		var order []opt.Config
		for a := range ds.Archs {
			s := tr.start(root, "ml", "Model.Predict")
			cfg := model.Predict(ds.Features[p][a], ml.WithExclude(name, a))
			tr.end(s)
			if _, ok := groups[cfg.Key()]; !ok {
				order = append(order, cfg)
			}
			groups[cfg.Key()] = append(groups[cfg.Key()], a)
		}
		distinct += len(order)
		for i := range order {
			archIdx := groups[order[i].Key()]
			archs := make([]uarch.Config, len(archIdx))
			for j, a := range archIdx {
				archs[j] = ds.Archs[a]
			}
			s := tr.start(root, "dataset", "Evaluator.Trace")
			t, _, err := ev.Trace(name, &order[i])
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.start(root, "cpu", "Evaluator.SimulateBatch")
			results := ev.SimulateBatch(t, archs)
			tr.end(s)
			for j, a := range archIdx {
				got := ds.BaselineCycles[p][a] / cyclesPerRun(t, results[j])
				if math.Float64bits(got) != math.Float64bits(pr.Speedup[p][a]) {
					ck.failf("staged leave-one-out: %s arch %d speedup %v, experiments.Predict says %v", name, a, got, pr.Speedup[p][a])
				}
			}
		}
		tr.end(root)
	}
	dur := tr.totals()
	total := dur["loo"].Seconds()
	m.set("experiments.loo_predict_share", dur["Model.Predict"].Seconds()/total)
	m.set("experiments.loo_eval_share", (dur["Evaluator.Trace"]+dur["Evaluator.SimulateBatch"]).Seconds()/total)
	m.set("experiments.loo_distinct_configs", float64(distinct))
	return nil
}
