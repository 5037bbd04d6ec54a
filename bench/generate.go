package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/experiments"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
)

// gridSpec is the shape of one generation grid. The grids are fixed;
// only the sampling inside them (which settings, which architectures)
// follows the seed.
type gridSpec struct {
	programs []string
	archs    int
	opts     int
	insns    int
	extended bool
}

// smokePrograms is the -smoke program set: small, and one each of the
// crypto, sort, checksum and signal-processing families.
var smokePrograms = []string{"rijndael_e", "qsort", "crc", "fft"}

// The three generation grids of the ISSUE, and the -smoke shape.
func paperSmallGrid(smoke bool) gridSpec {
	if smoke {
		return gridSpec{programs: smokePrograms, archs: 3, opts: 8, insns: 8_000}
	}
	s := experiments.Small
	return gridSpec{programs: prog.Names(), archs: s.NumArchs, opts: s.NumOpts, insns: s.TargetInsns}
}

func sweepDeepGrid(smoke bool) gridSpec {
	if smoke {
		return gridSpec{programs: smokePrograms, archs: 2, opts: 12, insns: 8_000}
	}
	return gridSpec{programs: prog.Names(), archs: 1, opts: 200, insns: 20_000}
}

func sweepWideGrid(smoke bool) gridSpec {
	if smoke {
		return gridSpec{programs: smokePrograms, archs: 12, opts: 4, insns: 8_000, extended: true}
	}
	return gridSpec{programs: prog.Names(), archs: 200, opts: 15, insns: 30_000, extended: true}
}

func (g gridSpec) genConfig(seed int64) dataset.GenConfig {
	return dataset.GenConfig{
		Programs: g.programs,
		NumArchs: g.archs,
		NumOpts:  g.opts,
		Extended: g.extended,
		Seed:     seed,
		Eval:     dataset.EvalConfig{TargetInsns: g.insns, Seed: 1},
	}
}

// genEnv is what a generation workload's set-up produces: the sampled
// grid and the suite's IR modules (the checks and the traced pass
// compile from them without going through the evaluator).
type genEnv struct {
	cfg     dataset.GenConfig
	req     dataset.ExploreRequest
	modules map[string]*ir.Module
}

func setupGrid(g gridSpec, seed int64) (*genEnv, error) {
	env := &genEnv{cfg: g.genConfig(seed), modules: map[string]*ir.Module{}}
	var err error
	if env.req, err = env.cfg.Request(); err != nil {
		return nil, err
	}
	for _, name := range g.programs {
		if env.modules[name], err = prog.Build(name); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// timeSetup runs the set-up once when it takes a second or more, and
// otherwise repeats it - up to fifteen times, for up to a second in all
// - so a millisecond-scale set-up reports a median instead of one noisy
// reading. Every environment but the last is torn down. With a
// yardstick (the batch workloads) the samples are in reference seconds.
func timeSetup[T any](cal *calibrator, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var env T
	var samples []float64
	var spent time.Duration
	var before float64
	if cal != nil {
		before = cal.read()
	}
	for len(samples) == 0 || (len(samples) < 15 && spent < time.Second) {
		if len(samples) > 0 && teardown != nil {
			teardown(env)
		}
		t0 := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, samples, err
		}
		d := time.Since(t0)
		spent += d
		samples = append(samples, d.Seconds())
	}
	if cal != nil {
		scale := scaleBetween(before, cal.read())
		for i := range samples {
			samples[i] *= scale
		}
	}
	return env, samples, nil
}

// passes is what timedPasses measured: each pass's time as read and in
// reference milliseconds.
type passes struct {
	rawMS, refMS []float64
}

// timedPasses runs op until the measuring budget is spent (at least
// once), or exactly rc.repeats times when that is set. The yardstick is
// read before the first pass and after every pass.
func timedPasses(rc *runConfig, cal *calibrator, op func() error) (passes, error) {
	var p passes
	start := time.Now()
	before := cal.read()
	for {
		t0 := time.Now()
		if err := op(); err != nil {
			return p, err
		}
		raw := ms(time.Since(t0))
		after := cal.read()
		p.rawMS = append(p.rawMS, raw)
		p.refMS = append(p.refMS, raw*scaleBetween(before, after))
		before = after
		if n := len(p.rawMS); (rc.repeats > 0 && n >= rc.repeats) ||
			(rc.repeats == 0 && time.Since(start).Seconds() >= rc.seconds) {
			return p, nil
		}
	}
}

// batchMetrics shapes the end-to-end metrics of a batch workload: an
// operation is one pass, ops are grid cells.
func batchMetrics(res *result, setup []float64, p passes, cells int) {
	m := res.Metrics
	m.setMedian("setup_s", setup)
	m.setLatency(p.refMS)
	res.Attempted = cells * len(p.refMS)
	if !res.ok() {
		res.Failed = res.Attempted
	}
	total := 0.0
	for _, t := range p.refMS {
		total += t
	}
	m.set("ops_per_s", float64(res.Attempted-res.Failed)/(total/1e3))
	m.set("within_limit", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.Detail["raw_latency_p50_ms"] = median(p.rawMS)
}

// figureValues holds the exact figure headlines of one leave-one-out
// evaluation; any speed-only change must leave them identical.
type figureValues struct {
	fig4BestAvg, fig4WrongAvg float64
	fig5Corr                  float64
	fig6ModelAvg, fig6BestAvg float64
	fig6PctOfMax              float64
	fig7ModelMin              float64
}

func figuresOf(ds *dataset.Dataset, pr *experiments.Predictions) figureValues {
	f4 := experiments.Figure4(ds)
	f5 := experiments.Figure5(pr)
	f6 := experiments.Figure6(pr)
	f7 := experiments.Figure7(pr)
	return figureValues{
		fig4BestAvg: f4.Average, fig4WrongAvg: f4.WrongAvg,
		fig5Corr:     f5.Correlation,
		fig6ModelAvg: f6.ModelAvg, fig6BestAvg: f6.BestAvg, fig6PctOfMax: f6.PercentOfMax,
		fig7ModelMin: f7.ModelMin,
	}
}

// checkShape is the Figure 6 shape claim: picking the worst sampled
// setting loses, the model gains, and the model never beats the
// iterative-compilation upper bound on average.
func (f figureValues) checkShape(ck *checker) {
	if !(f.fig4WrongAvg < f.fig6ModelAvg && f.fig6ModelAvg <= f.fig6BestAvg) {
		ck.failf("figure 6 shape: want wrong-avg %.4f < model-avg %.4f <= best-avg %.4f",
			f.fig4WrongAvg, f.fig6ModelAvg, f.fig6BestAvg)
	}
}

// runGeneration is the untraced pass of the three storeless generation
// workloads. With loo set every pass continues from the dataset into
// the leave-one-out evaluation and Figures 4-7 (paper-small).
func runGeneration(ctx context.Context, rc *runConfig, g gridSpec, loo bool) (*result, error) {
	cal := newCalibrator(rc)
	env, setup, err := timeSetup(cal, func() (*genEnv, error) { return setupGrid(g, rc.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res := newResult()
	ck := &res.checker
	cells := env.req.Cells()

	var genMS, looMS []float64
	var fps []string
	var last *dataset.Dataset
	var figs figureValues
	p, err := timedPasses(rc, cal, func() error {
		t0 := time.Now()
		ds, err := dataset.GenerateWith(ctx, env.cfg, dataset.ExploreOptions{})
		if err != nil {
			return err
		}
		fp, err := ds.Fingerprint()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if loo {
			pr, err := experiments.Predict(ctx, ds)
			if err != nil {
				return err
			}
			figs = figuresOf(ds, pr)
		}
		t2 := time.Now()
		genMS = append(genMS, ms(t1.Sub(t0)))
		looMS = append(looMS, ms(t2.Sub(t1)))
		fps = append(fps, fp)
		last = ds
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, fp := range fps[1:] {
		if fp != fps[0] {
			ck.failf("dataset fingerprint differs between repeats: %s vs %s", fp, fps[0])
		}
	}
	if err := verifyCells(last, env.modules, rand.New(rand.NewSource(rc.seed)), rc.verifyCells()); err != nil {
		ck.failf("%v", err)
	}
	if loo {
		figs.checkShape(ck)
		res.Detail["raw_loo_ms"] = median(looMS)
	}
	res.Detail["raw_generate_ms"] = median(genMS)
	res.Fingerprint = fps[0]
	batchMetrics(res, setup, p, cells)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deriveRuns is the evaluator's complete-run rule, restated: enough
// runs of the -O3 binary to approach the target length, within [1, 8].
func deriveRuns(probeInsns, target int) int {
	return min(max(target/max(probeInsns, 1), 1), 8)
}

// traceConfig is the trace-generation config every cell of ds used.
func traceConfig(ds *dataset.Dataset, runs int) trace.Config {
	maxInsns := ds.Cfg.Eval.MaxInsns
	if maxInsns <= 0 {
		maxInsns = dataset.DefaultEvalConfig.MaxInsns
	}
	return trace.Config{Runs: runs, MaxInsns: maxInsns, Seed: ds.Cfg.Eval.Seed}
}

// cyclesPerRun is the work-normalised metric the dataset divides.
func cyclesPerRun(tr *trace.Trace, r cpu.Result) float64 {
	return float64(r.Cycles) / float64(max(tr.Runs, 1))
}

// verifyCells recomputes a seeded sample of dataset cells through the
// independent per-setting path - core.Compile, trace.Generate, one
// sequential cpu.Simulate - and demands the dataset's speedups bit for
// bit. The batched compile engine, the fingerprint dedup, the sweep
// runner, the batched replay and (where used) the store are all
// bypassed, so any of them returning a wrong or stale cell fails here.
func verifyCells(ds *dataset.Dataset, modules map[string]*ir.Module, rng *rand.Rand, n int) error {
	nP, nA, nO := ds.Dims()
	type base struct {
		tr   *trace.Trace // the -O3 trace every speedup divides by
		runs int
	}
	o3s := map[int]base{}
	o3 := opt.O3()
	for i := 0; i < n; i++ {
		p, a, o := rng.Intn(nP), rng.Intn(nA), 1+rng.Intn(nO-1)
		m := modules[ds.Programs[p]]
		b, ok := o3s[p]
		if !ok {
			bin, err := core.Compile(m, &o3)
			if err != nil {
				return err
			}
			probe := trace.Generate(bin, traceConfig(ds, 1))
			b.runs = deriveRuns(probe.Insns(), ds.Cfg.Eval.TargetInsns)
			if b.runs != ds.Runs[p] {
				return fmt.Errorf("verify: %s runs %d, dataset says %d", ds.Programs[p], b.runs, ds.Runs[p])
			}
			b.tr = trace.Generate(bin, traceConfig(ds, b.runs))
			o3s[p] = b
		}
		c0 := cyclesPerRun(b.tr, cpu.Simulate(b.tr, ds.Archs[a]))
		if c0 != ds.BaselineCycles[p][a] {
			return fmt.Errorf("verify: %s arch %d baseline %v, dataset says %v", ds.Programs[p], a, c0, ds.BaselineCycles[p][a])
		}
		bin, err := core.Compile(m, &ds.Opts[o])
		if err != nil {
			return err
		}
		tr := trace.Generate(bin, traceConfig(ds, b.runs))
		want := float32(c0 / cyclesPerRun(tr, cpu.Simulate(tr, ds.Archs[a])))
		if got := ds.Speedups[p][a][o]; math.Float32bits(got) != math.Float32bits(want) {
			return fmt.Errorf("verify: %s arch %d setting %d speedup %v, independent path says %v",
				ds.Programs[p], a, o, got, want)
		}
	}
	return nil
}
