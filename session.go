package portcc

import (
	"context"
	"fmt"
	"sync"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/sched"
)

// Progress reports completed exploration work cells. Total is fixed for
// the lifetime of one operation; Done increases monotonically.
type Progress struct {
	Done, Total int
}

// Option configures a Session (functional options).
type Option func(*sessionConfig)

type sessionConfig struct {
	scale    Scale
	scaleSet bool
	eval     dataset.EvalConfig
	evalSet  bool
	explore  dataset.ExploreOptions
}

// WithWorkers bounds the worker pool used by Explore and GenerateDataset
// (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *sessionConfig) { c.explore.Workers = n }
}

// WithShards distributes Explore and GenerateDataset over portccd worker
// daemons at the given host:port addresses instead of the local worker
// pool. The streamed results merge into datasets bit-identical to a
// local run; cells from a dead shard connection requeue onto the
// survivors while the shard is redialled with backoff (see
// WithShardRetry), and only when every shard has exhausted its retry
// budget does the run surface an error wrapping ErrShardFailure.
// Single-run methods (Run, Speedup, ...) stay local. An empty address
// list keeps execution local.
func WithShards(addrs ...string) Option {
	return func(c *sessionConfig) { c.explore.Shards = append([]string(nil), addrs...) }
}

// RetryPolicy governs how a sharded run (WithShards) survives dying
// worker connections. A dead connection's unfinished cells requeue onto
// the surviving shards immediately; the coordinator then redials the
// dead shard with exponential backoff (BaseBackoff doubling up to
// MaxBackoff, jittered deterministically from Seed) for up to
// MaxAttempts consecutive fruitless attempts - any completed cell
// resets the count, so a daemon stuck in a crash/restart loop is
// re-adopted indefinitely as long as it makes progress. Version
// mismatches and protocol violations are never retried. A cell that
// strands MaxStrands dying connections in a row is quarantined: the run
// fails typed with ErrCellPoisoned at that cell's index instead of
// burning every shard's budget on it. Zero fields take scheduler
// defaults (3 attempts, 100ms..5s backoff, 5 strandings).
type RetryPolicy = sched.RetryPolicy

// WithShardRetry sets the reconnect/quarantine policy of sharded runs.
// Without it, sharded sessions use the scheduler defaults; with
// MaxAttempts 1 every connection death permanently removes that shard,
// restoring the pre-retry behaviour.
func WithShardRetry(p RetryPolicy) Option {
	return func(c *sessionConfig) { c.explore.Retry = p }
}

// WithScale selects the sampling scale (trace lengths, dataset sizes) the
// session's operations default to. The default is SmallScale for dataset
// work and full-length traces for single runs.
func WithScale(s Scale) Option {
	return func(c *sessionConfig) { c.scale, c.scaleSet = s, true }
}

// WithProgress installs a progress callback invoked after every completed
// exploration cell. Calls are serialised; keep the callback cheap.
func WithProgress(fn func(Progress)) Option {
	return func(c *sessionConfig) {
		c.explore.Progress = nil
		if fn != nil {
			c.explore.Progress = func(done, total int) { fn(Progress{Done: done, Total: total}) }
		}
	}
}

// WithNaiveCompile bypasses the sweep state of Explore and
// GenerateDataset - compile index, window FIFO, twin replay memo, result
// store: every grid cell then compiles, traces and replays its own
// setting independently. Datasets are bit-identical either way; the naive
// path is the equivalence oracle the batched path is byte-compared
// against (CI's "Batched path matches naive path" step). Sharded runs
// forward the choice to the worker daemons.
func WithNaiveCompile() Option {
	return func(c *sessionConfig) { c.explore.Naive = true }
}

// Session is the user-facing entry point: compile benchmarks under chosen
// optimisation settings, run them on simulated microarchitectures, and
// stream design-space explorations. A Session is safe for concurrent use;
// every long-running method takes a context and stops promptly - draining
// its workers - when the context is cancelled. A result store
// (WithResultStore) serves Explore and GenerateDataset only: the
// single-run methods (Compile, Run, CyclesPerRun, Speedup, CompileAndRun,
// OptimizeFor) neither consult nor write it. They validate through admit
// and replay through run, which simulates a (program, arch)'s -O3 run once.
type Session struct {
	cfg sessionConfig
	ev  *dataset.Evaluator

	// baseline memoises the -O3 run of each baselineKey as a
	// *func() (measured, error) from sync.OnceValues: concurrent calls
	// for the same (program, arch) wait for one simulation.
	baseline sync.Map
}

type baselineKey struct {
	program string
	arch    Arch
}

// measured is one single run: the binary, its counters, cycles per run.
type measured struct {
	bin    *Binary
	res    RunResult
	perRun float64
}

// NewSession builds a session from functional options:
//
//	s := portcc.NewSession(portcc.WithWorkers(8), portcc.WithScale(portcc.TinyScale()))
func NewSession(opts ...Option) *Session {
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Session{cfg: cfg}
	// Its own evaluator runs the single-run methods' per-event replays only.
	s.ev = dataset.NewEvaluator(s.evalConfig())
	return s
}

// evalConfig derives the evaluator workload parameters from the options:
// an explicit WithEvalConfig wins (deploying a pre-trained artifact must
// profile with the training parameters), then the scale's derivation
// (via genConfig, the single source), then full-length default traces.
func (s *Session) evalConfig() dataset.EvalConfig {
	if s.cfg.evalSet {
		return s.cfg.eval
	}
	if s.cfg.scaleSet {
		return s.genConfig(false).Eval
	}
	return dataset.EvalConfig{}
}

// scale returns the session scale (SmallScale unless WithScale was given).
func (s *Session) scale() Scale {
	if s.cfg.scaleSet {
		return s.cfg.scale
	}
	return SmallScale()
}

// Stats returns how many compiles and simulations the session's own
// evaluator has performed (Explore and GenerateDataset use per-worker
// evaluators and are not counted here).
func (s *Session) Stats() (compiles, simulations int) {
	st := s.ev.Stats()
	return st.Compiles, st.Simulations
}

// admit is the one entry check of the single-run methods: the context,
// then each architecture, then the setting. A memoised -O3 run answers
// without looking at ctx, so a cancelled call must stop here.
func admit(ctx context.Context, cfg OptConfig, archs ...Arch) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return cfg.Validate()
}

// run is the one replay path of the single-run methods: program compiled
// under cfg, replayed event by event on arch, as admitted by the caller.
// The -O3 run is memoised per (program, arch); a failure is not.
func (s *Session) run(program string, cfg OptConfig, arch Arch) (measured, error) {
	replay := func() (measured, error) {
		bin, r, runs, err := s.ev.CompileAndRun(program, &cfg, arch)
		if err != nil {
			return measured{}, err
		}
		return measured{bin: bin, res: r, perRun: float64(r.Cycles) / float64(runs)}, nil
	}
	if cfg != O3() {
		return replay()
	}
	key := baselineKey{program: program, arch: arch}
	v, ok := s.baseline.Load(key)
	if !ok {
		f := sync.OnceValues(replay)
		v, _ = s.baseline.LoadOrStore(key, &f)
	}
	f := v.(*func() (measured, error))
	m, err := (*f)()
	if err != nil {
		s.baseline.CompareAndDelete(key, f)
	}
	return m, err
}

// Compile builds the named benchmark under the given optimisation setting
// and returns its binary image; no trace is generated.
func (s *Session) Compile(ctx context.Context, program string, cfg OptConfig) (*Binary, error) {
	if err := admit(ctx, cfg); err != nil {
		return nil, err
	}
	return s.ev.Compile(program, &cfg)
}

// Run compiles and simulates the named benchmark on an architecture,
// returning cycles and the Table 1 performance counters.
func (s *Session) Run(ctx context.Context, program string, cfg OptConfig, arch Arch) (RunResult, error) {
	if err := admit(ctx, cfg, arch); err != nil {
		return RunResult{}, err
	}
	m, err := s.run(program, cfg, arch)
	return m.res, err
}

// CyclesPerRun returns the work-normalised execution time (cycles per
// complete program run), the metric speedups are computed from.
func (s *Session) CyclesPerRun(ctx context.Context, program string, cfg OptConfig, arch Arch) (float64, error) {
	if err := admit(ctx, cfg, arch); err != nil {
		return 0, err
	}
	m, err := s.run(program, cfg, arch)
	return m.perRun, err
}

// Speedup measures cfg against -O3 on the given architecture. The -O3
// denominator is the session's memoised run, so iterative-compilation
// loops pay for one baseline simulation, not one per candidate.
func (s *Session) Speedup(ctx context.Context, program string, cfg OptConfig, arch Arch) (float64, error) {
	_, _, speedup, err := s.CompileAndRun(ctx, program, cfg, arch)
	return speedup, err
}

// CompileAndRun compiles the named benchmark under cfg once and measures
// that binary on arch: the image, its counters and its speedup over the
// session's memoised -O3 run. It returns what Compile, Run and Speedup
// return, for one compile where the three calls pay three; at -O3 it
// compiles and simulates nothing the session has not already.
func (s *Session) CompileAndRun(ctx context.Context, program string, cfg OptConfig, arch Arch) (*Binary, RunResult, float64, error) {
	if err := admit(ctx, cfg, arch); err != nil {
		return nil, RunResult{}, 0, err
	}
	base, err := s.run(program, O3(), arch)
	if err != nil {
		return nil, RunResult{}, 0, err
	}
	m, err := s.run(program, cfg, arch)
	if err != nil {
		return nil, RunResult{}, 0, err
	}
	if m.res.Cycles == 0 {
		return nil, RunResult{}, 0, fmt.Errorf("portcc: zero cycle count for %s", program)
	}
	return m.bin, m.res, base.perRun / m.perRun, nil
}

// OptimizeFor is the deployment path of Figure 2: one profile run of the
// program at -O3 on the target architecture (the session's memoised run,
// which Speedup and CompileAndRun reuse) supplies the performance
// counters; the model predicts the best passes; the returned
// configuration is ready to compile with. A nil model is ErrInvalidConfig.
func (s *Session) OptimizeFor(ctx context.Context, program string, arch Arch, m *Model) (OptConfig, error) {
	if m == nil {
		return OptConfig{}, fmt.Errorf("portcc: %w: no model", ErrInvalidConfig)
	}
	if m.Dim() != features.Dim {
		return OptConfig{}, fmt.Errorf("portcc: %w: model has %d-wide feature vectors, a profile run measures %d",
			ErrInvalidConfig, m.Dim(), features.Dim)
	}
	if err := admit(ctx, O3(), arch); err != nil {
		return OptConfig{}, err
	}
	o3, err := s.run(program, O3(), arch)
	if err != nil {
		return OptConfig{}, err
	}
	return m.Predict(features.Vector(arch, &o3.res)), nil
}
