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

// Fraction returns completion in [0, 1].
func (p Progress) Fraction() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Done) / float64(p.Total)
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
// single-run methods (Compile, Run, RunBatch, CyclesPerRun, Speedup,
// CompileAndRun, OptimizeFor) neither consult nor write it.
type Session struct {
	cfg sessionConfig
	ev  *dataset.Evaluator

	// baseline memoises the -O3 cycles per run of each baselineKey as a
	// *func() (float64, error) from sync.OnceValues: concurrent calls for
	// the same (program, arch) wait for one simulation.
	baseline sync.Map
}

type baselineKey struct {
	program string
	arch    Arch
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
	// The session's own evaluator serves single-trace calls (RunBatch,
	// Speedup): nothing else competes for the machine there, so its
	// batched replays sweep over the full budget (0 = GOMAXPROCS).
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

// Compile builds the named benchmark under the given optimisation setting
// and returns its binary image; no trace is generated.
func (s *Session) Compile(ctx context.Context, program string, cfg OptConfig) (*Binary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return s.ev.Compile(program, &cfg)
}

// Run compiles and simulates the named benchmark on an architecture,
// returning cycles and the Table 1 performance counters.
func (s *Session) Run(ctx context.Context, program string, cfg OptConfig, arch Arch) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	if err := arch.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	return s.ev.Run(program, &cfg, arch)
}

// RunBatch compiles the program once and replays its trace on every
// architecture in a single batched pass (bit-identical to calling Run per
// architecture, but the trace is streamed once and cache/BTB state is
// deduplicated by geometry). This is the fast path for design-space
// exploration: one binary, many microarchitectures.
func (s *Session) RunBatch(ctx context.Context, program string, cfg OptConfig, archs []Arch) ([]RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, a := range archs {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("portcc: arch %d: %w", i, err)
		}
	}
	tr, _, err := s.ev.Trace(program, &cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.ev.SimulateBatch(tr, archs), nil
}

// CyclesPerRun returns the work-normalised execution time (cycles per
// complete program run), the metric speedups are computed from.
func (s *Session) CyclesPerRun(ctx context.Context, program string, cfg OptConfig, arch Arch) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := arch.Validate(); err != nil {
		return 0, err
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	_, r, runs, err := s.ev.CompileAndRun(program, &cfg, arch)
	if err != nil {
		return 0, err
	}
	return float64(r.Cycles) / float64(runs), nil
}

// Speedup measures cfg against -O3 on the given architecture. The -O3
// denominator is memoised per (program, architecture) on the session, so
// iterative-compilation loops pay for one baseline simulation, not one
// per candidate.
func (s *Session) Speedup(ctx context.Context, program string, cfg OptConfig, arch Arch) (float64, error) {
	_, _, speedup, err := s.CompileAndRun(ctx, program, cfg, arch)
	return speedup, err
}

// CompileAndRun compiles the named benchmark under cfg once and measures
// that binary on arch: the image, its counters and its speedup over -O3
// (the session's memoised baseline). It returns what Compile, Run and
// Speedup return, for one compile where the three calls pay three.
func (s *Session) CompileAndRun(ctx context.Context, program string, cfg OptConfig, arch Arch) (*Binary, RunResult, float64, error) {
	// A memoised baseline answers without looking at ctx.
	if err := ctx.Err(); err != nil {
		return nil, RunResult{}, 0, err
	}
	if err := arch.Validate(); err != nil {
		return nil, RunResult{}, 0, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, RunResult{}, 0, err
	}
	base, err := s.baselineCyclesPerRun(program, arch)
	if err != nil {
		return nil, RunResult{}, 0, err
	}
	bin, res, runs, err := s.ev.CompileAndRun(program, &cfg, arch)
	if err != nil {
		return nil, RunResult{}, 0, err
	}
	if res.Cycles == 0 {
		return nil, RunResult{}, 0, fmt.Errorf("portcc: zero cycle count for %s", program)
	}
	return bin, res, base / (float64(res.Cycles) / float64(runs)), nil
}

// baselineCyclesPerRun returns the memoised -O3 cycles per run of
// program on arch, which the caller has validated. A failure is not
// memoised: a later call retries.
func (s *Session) baselineCyclesPerRun(program string, arch Arch) (float64, error) {
	key := baselineKey{program: program, arch: arch}
	v, ok := s.baseline.Load(key)
	if !ok {
		f := sync.OnceValues(func() (float64, error) {
			o3 := O3()
			_, r, runs, err := s.ev.CompileAndRun(program, &o3, arch)
			if err != nil {
				return 0, err
			}
			return float64(r.Cycles) / float64(runs), nil
		})
		v, _ = s.baseline.LoadOrStore(key, &f)
	}
	f := v.(*func() (float64, error))
	base, err := (*f)()
	if err != nil {
		s.baseline.CompareAndDelete(key, f)
	}
	return base, err
}

// OptimizeFor is the deployment path of Figure 2: one profile run of the
// program at -O3 on the target architecture supplies the performance
// counters; the model predicts the best passes; the returned configuration
// is ready to compile with. A nil model fails with ErrInvalidConfig.
func (s *Session) OptimizeFor(ctx context.Context, program string, arch Arch, m *Model) (OptConfig, error) {
	if m == nil {
		return OptConfig{}, fmt.Errorf("portcc: %w: no model", ErrInvalidConfig)
	}
	if m.Dim() != features.Dim {
		return OptConfig{}, fmt.Errorf("portcc: %w: model has %d-wide feature vectors, a profile run measures %d",
			ErrInvalidConfig, m.Dim(), features.Dim)
	}
	r, err := s.Run(ctx, program, O3(), arch)
	if err != nil {
		return OptConfig{}, err
	}
	x := features.Vector(arch, &r)
	return m.Predict(x), nil
}
