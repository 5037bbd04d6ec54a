// Package dataset generates and stores the paper's training data: for a
// sample of programs, microarchitectures and optimisation settings, the
// speedup of every setting over -O3 plus the -O3 performance-counter
// feature vectors (Section 3.2).
//
// The expensive pipeline stage is compile+trace, which is independent of
// the microarchitecture: the Evaluator compiles once per (program,
// setting) and replays the trace across architectures, making the paper's
// 7-million-simulation protocol tractable.
//
// Explore measures every grid - generation, leave-one-out, Figure 1 -
// on a pool of evaluators over one sharedBase; a standalone Evaluator
// (NewEvaluator) serves single replays.
//
// Two things are resident at most: one -O3 baseline per program
// (sharedBase: binary, trace and, once asked for, the trace's
// cpu.Profile) and one window of compiled binaries per sweep in flight
// (sweep.go, which alone consults a result store) - plus, on each sweep
// worker slot's evaluator, one trace buffer, reused from replay to
// replay at the size of the longest trace that slot has generated. A
// trace of any other setting lives for exactly one replay, and one
// exploration cell is one (program, setting) replayed over the
// request's whole architecture sample; neither is configurable.
package dataset

import (
	"sync"
	"sync/atomic"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/ir"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// EvalConfig fixes the workload-scaling parameters of an Evaluator.
type EvalConfig struct {
	// TargetInsns is the approximate dynamic trace length per simulation;
	// the run count per program is derived from it (>=1 complete runs).
	TargetInsns int
	// MaxInsns is the hard safety cap per trace.
	MaxInsns int
	// Seed drives trace generation (branch outcomes, addresses).
	Seed int64
}

// DefaultEvalConfig is used when fields are zero.
var DefaultEvalConfig = EvalConfig{TargetInsns: 30_000, MaxInsns: 400_000, Seed: 1}

func (c EvalConfig) withDefaults() EvalConfig {
	d := DefaultEvalConfig
	if c.TargetInsns > 0 {
		d.TargetInsns = c.TargetInsns
	}
	if c.MaxInsns > 0 {
		d.MaxInsns = c.MaxInsns
	}
	if c.Seed != 0 {
		d.Seed = c.Seed
	}
	return d
}

// ArtifactEval reconstructs the profiling parameters embedded in a model
// artifact: deployment profiles with them so its feature vectors stay
// comparable to the training distribution.
func ArtifactEval(info ml.ArtifactInfo) EvalConfig {
	return EvalConfig{
		TargetInsns: info.EvalTargetInsns,
		MaxInsns:    info.EvalMaxInsns,
		Seed:        info.EvalSeed,
	}
}

// sharedBase holds one baseline slot per program - everything about a
// program that depends on neither the microarchitecture nor the setting
// under test - for one evaluator or a runner's pool of them. A fan-out
// that spreads one program's cells over many workers still builds each
// module and compiles each -O3 binary exactly once (single-flight); a
// standalone evaluator is simply one with a private base. Every
// evaluator sharing a base must use the same EvalConfig, or run counts
// would disagree between workers.
type sharedBase struct {
	mu    sync.Mutex
	slots map[string]*baseline
	// compiles counts -O3 compiles actually performed (tests pin it);
	// traces and bytes gauge the resident full-length -O3 traces, bounded
	// by the closed suite: one per touched program, never dropped.
	compiles, traces, bytes atomic.Int64
}

// baseline is one program's slot, built in four steps: the module and
// its hash (all a compile-index lookup needs), the -O3 binary and probe,
// the full-length -O3 trace, and that trace's profile over the whole
// architecture space. Each is written once, under its once.
type baseline struct {
	modOnce sync.Once
	m       *ir.Module
	mhash   [32]byte // ir.Module.Hash, the program's identity in index keys
	merr    error

	once   sync.Once
	prog   *codegen.Program // the -O3 binary
	runs   int              // complete runs per trace, fixed per program
	perRun int              // dynamic instructions of one -O3 run (sizing hint)
	err    error

	trOnce sync.Once
	tr     *trace.Trace // full-length -O3 trace, resident from its first request

	profOnce sync.Once
	prof     *cpu.Profile // tr's covering replay, from its first request
}

// newSharedBase builds an empty base for a pool of evaluators.
func newSharedBase() *sharedBase {
	return &sharedBase{slots: map[string]*baseline{}}
}

// deriveRuns turns the length of a 1-run -O3 probe into the per-program
// complete-run count: enough runs to approach TargetInsns, clamped to
// [1, 8].
func deriveRuns(perRun int, cfg EvalConfig) int {
	return min(max(cfg.TargetInsns/max(perRun, 1), 1), 8)
}

// traceConfig is the generation config of every trace of the program:
// all settings perform the same number of complete runs.
func (sl *baseline) traceConfig(cfg EvalConfig) trace.Config {
	return trace.Config{Runs: sl.runs, MaxInsns: cfg.MaxInsns, Seed: cfg.Seed}
}

// capHint sizes a trace buffer from the -O3 probe so generation runs
// without append doublings (measured 2.3-4x slower).
func (sl *baseline) capHint(cfg EvalConfig) int {
	return min(sl.runs*sl.perRun+sl.perRun/2+256, cfg.MaxInsns+64)
}

// Evaluator compiles programs under optimisation settings and simulates
// them on microarchitectures. The -O3 baseline of each program lives in
// the base's slot and stays resident; nothing else is cached here - a
// trace of any other setting is generated for the replay that needs it,
// and no result store is consulted (only the sweep state holds one).
// Safe for concurrent use.
type Evaluator struct {
	cfg  EvalConfig
	base *sharedBase
	// sweepWorkers bounds the per-geometry sweep parallelism inside each
	// batched replay (0 = GOMAXPROCS, cpu.SimulateBatchWith's contract).
	// Worker pools that already fan out over programs set an explicit
	// share via SetSweepWorkers so the two levels together match the
	// machine (see internal/tune).
	sweepWorkers atomic.Int64

	mu sync.Mutex
	// The work ledger, read through Stats.
	compiles, simulations       int
	passRuns, traceReuses       int64
	traceGens, traceEvents      int64
	dataSweeps, dataSweepReuses int64

	// fpScratch is compileSetting's fingerprint buffer and slotTr the
	// sweep's trace buffer, both outside mu: only the sweep uses them, on
	// its slot's own evaluator, one cell at a time.
	fpScratch []byte
	slotTr    trace.Trace
	// compileHook, set by tests only, runs before each compile and fails
	// it by returning an error: core.Compile itself rejects nothing
	// Validate lets through.
	compileHook func(*opt.Config) error
}

// o3 is the baseline setting every slot is built for.
var o3 = opt.O3()

// NewEvaluator builds a standalone evaluator.
func NewEvaluator(cfg EvalConfig) *Evaluator {
	return newEvaluatorWith(cfg, nil)
}

// newEvaluatorWith builds an evaluator over base, the baseline slots a
// worker pool shares (nil: a private base).
func newEvaluatorWith(cfg EvalConfig, base *sharedBase) *Evaluator {
	if base == nil {
		base = newSharedBase()
	}
	return &Evaluator{cfg: cfg.withDefaults(), base: base}
}

// Stats is the evaluator's work ledger, counting work actually
// performed. Compiles counts per-setting compilations: a storeless
// sweep window that is evicted and later rebuilt recompiles, and
// recounts, while a fully indexed run over a result store reads 0, the
// -O3 probe included. PassRuns counts the pass applications of those
// compiles in core.CompileCount's unit (a module pass once, a
// per-function pass once per function it ran on); PassRunsSaved always
// reads 0 and stays only because bench/ reads the field. TraceReuses
// counts the sweep cells this evaluator ran that found their binary's
// replay memo already made - an earlier setting of the same program in
// the same sweep produced a byte-identical binary - so their trace
// generation and replay were skipped. TraceGens counts trace generations this evaluator
// performed and TraceEvents the dynamic instructions they emitted - the
// denominator that makes generator-throughput changes observable from a
// benchmark run without a profiler. DataSweeps counts batched replays
// that swept the data caches, DataSweepReuses those answered from the
// sweep's data-stream memo instead; together, the batched replays run.
// A slot's -O3 compile and probe are counted by the one evaluator that
// built it. A sweep's result store keeps its own ledger
// (ResultStore.Stats).
type Stats struct {
	Compiles    int
	Simulations int

	PassRuns      int64
	PassRunsSaved int64
	TraceReuses   int64

	TraceGens   int64
	TraceEvents int64

	DataSweeps      int64
	DataSweepReuses int64

	// BaselineTraces and BaselineTraceBytes are gauges, not counters: the
	// -O3 traces resident in the evaluator's base right now and their
	// approximate size.
	BaselineTraces, BaselineTraceBytes int64
}

// Stats returns the work counters under the evaluator's lock, safe
// against concurrent use.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Compiles:    e.compiles,
		Simulations: e.simulations,
		PassRuns:    e.passRuns,
		TraceReuses: e.traceReuses,
		TraceGens:   e.traceGens,
		TraceEvents: e.traceEvents,

		DataSweeps:      e.dataSweeps,
		DataSweepReuses: e.dataSweepReuses,
	}
	st.BaselineTraces, st.BaselineTraceBytes = e.base.traces.Load(), e.base.bytes.Load()
	return st
}

// countTraceGen records one performed trace generation and hands the
// trace back.
func (e *Evaluator) countTraceGen(tr *trace.Trace) *trace.Trace {
	e.mu.Lock()
	e.traceGens++
	e.traceEvents += int64(len(tr.Events))
	e.mu.Unlock()
	return tr
}

// module returns the program's slot with its module built and hashed.
// Concurrent first touches wait for the one build; a failed slot is
// forgotten (names arrive from outside - the prediction server - and
// only the closed suite may stay). Must not be called with e.mu held.
func (e *Evaluator) module(name string) (*baseline, error) {
	b := e.base
	b.mu.Lock()
	sl, ok := b.slots[name]
	if !ok {
		sl = &baseline{}
		b.slots[name] = sl
	}
	b.mu.Unlock()
	sl.modOnce.Do(func() {
		if sl.m, sl.merr = prog.Build(name); sl.merr == nil {
			sl.mhash = sl.m.Hash()
		}
	})
	if sl.merr != nil {
		b.forget(name, sl)
	}
	return sl, sl.merr
}

// forget drops a slot whose build failed.
func (b *sharedBase) forget(name string, sl *baseline) {
	b.mu.Lock()
	if b.slots[name] == sl {
		delete(b.slots, name)
	}
	b.mu.Unlock()
}

// baseline returns the slot with its second step done: the -O3 binary
// and - from a 1-run probe of it - the run count that makes every
// setting of the program do identical work.
func (e *Evaluator) baseline(name string) (*baseline, error) {
	sl, err := e.module(name)
	if err != nil {
		return nil, err
	}
	sl.once.Do(func() {
		e.base.compiles.Add(1)
		if sl.prog, sl.err = e.compile(sl, &o3); sl.err != nil {
			return
		}
		probe := e.countTraceGen(trace.GenerateInto(trace.Get(0), sl.prog, trace.Config{Runs: 1, MaxInsns: e.cfg.MaxInsns, Seed: e.cfg.Seed}))
		sl.perRun = probe.Insns()
		sl.runs = deriveRuns(sl.perRun, e.cfg)
		trace.Put(probe)
	})
	if sl.err != nil {
		e.base.forget(name, sl)
		return nil, sl.err
	}
	return sl, nil
}

// baselineTrace returns the slot's full-length -O3 trace, generated from
// the slot's binary at the first request; concurrent callers wait for
// the one generation.
func (e *Evaluator) baselineTrace(sl *baseline) *trace.Trace {
	sl.trOnce.Do(func() {
		sl.tr = e.countTraceGen(trace.GenerateSized(sl.prog, sl.traceConfig(e.cfg), sl.capHint(e.cfg)))
		e.base.traces.Add(1)
		e.base.bytes.Add(traceBytes(sl.tr))
	})
	return sl.tr
}

// traceBytes approximates the resident size of a trace: the event stream
// dominates (16 bytes per padded Event) plus a small fixed cost for
// counters and the binary image.
func traceBytes(tr *trace.Trace) int64 {
	return int64(len(tr.Events))*16 + 4096
}

// compile compiles the program under c, counting the work.
func (e *Evaluator) compile(sl *baseline, c *opt.Config) (*codegen.Program, error) {
	if e.compileHook != nil {
		if err := e.compileHook(c); err != nil {
			return nil, err
		}
	}
	p, n, err := core.CompileCount(sl.m, c)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.compiles++
	e.passRuns += int64(n)
	e.mu.Unlock()
	return p, nil
}

// Compile returns the binary of the program compiled under c - the
// slot's for -O3, a fresh compile otherwise - without generating a trace.
func (e *Evaluator) Compile(name string, c *opt.Config) (*codegen.Program, error) {
	sl, err := e.baseline(name)
	if err != nil {
		return nil, err
	}
	if *c == o3 {
		return sl.prog, nil
	}
	return e.compile(sl, c)
}

// Trace returns the dynamic trace of the program compiled under c, and
// the binary. For -O3 it is the slot's resident trace, shared and
// read-only. For any other setting it is compiled and generated on every
// call into a fresh buffer sized from the probe, and the caller owns it:
// replay it over everything that needs it, then let it go.
func (e *Evaluator) Trace(name string, c *opt.Config) (*trace.Trace, *codegen.Program, error) {
	sl, err := e.baseline(name)
	if err != nil {
		return nil, nil, err
	}
	if *c == o3 {
		return e.baselineTrace(sl), sl.prog, nil
	}
	p, err := e.compile(sl, c)
	if err != nil {
		return nil, nil, err
	}
	return e.countTraceGen(trace.GenerateSized(p, sl.traceConfig(e.cfg), sl.capHint(e.cfg))), p, nil
}

// settingBinary is one setting of a compiled sweep window: the binary and
// its fingerprint, or the setting's compile failure. Twins -
// byte-identical binaries - share a fingerprint, which is how the sweep
// generates one trace (and one replay) per distinct binary.
type settingBinary struct {
	Prog *codegen.Program
	FP   codegen.Fingerprint
	Err  error
}

// compileSetting compiles the program whose built slot is sl under c and
// fingerprints the binary. The serialisation scratch lives on the
// evaluator, unguarded: only the sweep calls this, on its slot's own
// evaluator, and a slot runs one cell at a time (the sched contract).
func (e *Evaluator) compileSetting(sl *baseline, c *opt.Config) (b settingBinary) {
	if b.Prog, b.Err = e.compile(sl, c); b.Err == nil {
		b.FP, e.fpScratch = codegen.FingerprintInto(b.Prog, e.fpScratch)
	}
	return b
}

// pooledTrace generates the trace of p, an already-compiled binary of the
// program whose built slot is sl, into a pooled buffer sized from the
// -O3 probe, so steady-state generation runs without append doublings in
// one allocation. The run count comes from the slot, so every worker
// slot derives the identical trace. The caller owns the trace and must
// return it with trace.Put when done.
func (e *Evaluator) pooledTrace(sl *baseline, p *codegen.Program) *trace.Trace {
	return e.countTraceGen(trace.GenerateInto(trace.Get(sl.capHint(e.cfg)), p, sl.traceConfig(e.cfg)))
}

// slotTrace is pooledTrace into the evaluator's own buffer, which keeps
// its largest size from cell to cell: unlike a sync.Pool entry, which
// the collector may drop between cells, it is never regrown once warm.
// Sweep-only and unguarded, like fpScratch; the trace is valid until the
// slot's next cell.
func (e *Evaluator) slotTrace(sl *baseline, p *codegen.Program) *trace.Trace {
	if hint := sl.capHint(e.cfg); cap(e.slotTr.Events) < hint {
		e.slotTr.Events = make([]trace.Event, 0, hint)
	}
	return e.countTraceGen(trace.GenerateInto(&e.slotTr, p, sl.traceConfig(e.cfg)))
}

// SetSweepWorkers sets the worker budget each batched replay fans its
// per-geometry sweeps over: 0 (the default) uses GOMAXPROCS, so a
// standalone evaluator exploits the whole machine per SimulateBatch
// call; n >= 1 pins an explicit share, which worker pools use to divide
// the machine between program fan-out and sweep parallelism. Results
// are bit-identical at every setting.
func (e *Evaluator) SetSweepWorkers(n int) { e.sweepWorkers.Store(int64(n)) }

// Profile returns the covering profile of program name's resident -O3
// trace: one batched replay of the cpu.Profile sample, built at the first
// request (concurrent callers wait for the one build) and counted as that
// many simulations on the evaluator's sweep-worker budget. Its Result on
// any valid architecture is bit-identical to Run's at -O3, which stays a
// per-event replay.
func (e *Evaluator) Profile(name string) (*cpu.Profile, error) {
	sl, err := e.baseline(name)
	if err != nil {
		return nil, err
	}
	sl.profOnce.Do(func() {
		sl.prof = cpu.NewProfile(e.baselineTrace(sl), int(e.sweepWorkers.Load()))
		e.countBatch(sl.prof.Sims(), false)
	})
	return sl.prof, nil
}

// SimulateBatch replays an already-generated trace on every architecture
// through the batched single-pass engine, returning one result per
// architecture in input order (bit-identical to cpu.Simulate per
// architecture). The per-geometry sweeps inside the pass fan over the
// evaluator's sweep-worker budget (SetSweepWorkers).
func (e *Evaluator) SimulateBatch(tr *trace.Trace, archs []uarch.Config) []cpu.Result {
	return e.simulateBatch(tr, archs, nil)
}

// simulateBatch is the one counted batched replay: SimulateBatch's with
// no memo, the sweep's with its program's data-stream memo.
func (e *Evaluator) simulateBatch(tr *trace.Trace, archs []uarch.Config, memo *cpu.DataMemo) []cpu.Result {
	rs, reused := cpu.SimulateBatchMemo(tr, archs, int(e.sweepWorkers.Load()), memo)
	e.countBatch(len(archs), reused)
	return rs
}

// countBatch records one batched replay of n simulations; reused: the
// data caches came from a memo.
func (e *Evaluator) countBatch(n int, reused bool) {
	e.mu.Lock()
	e.simulations += n
	if reused {
		e.dataSweepReuses++
	} else {
		e.dataSweeps++
	}
	e.mu.Unlock()
}

// simulate replays a trace on an architecture, counting the simulation.
func (e *Evaluator) simulate(tr *trace.Trace, a uarch.Config) cpu.Result {
	r := cpu.Simulate(tr, a)
	e.mu.Lock()
	e.simulations++
	e.mu.Unlock()
	return r
}

// Run simulates program name compiled under c on architecture a: one
// per-event replay of the slot's resident trace at -O3, of a fresh one
// otherwise. It never consults a result store, so it stays an
// independent check of every stored or profiled answer.
func (e *Evaluator) Run(name string, c *opt.Config, a uarch.Config) (cpu.Result, error) {
	_, r, _, err := e.CompileAndRun(name, c, a)
	return r, err
}

// CompileAndRun is the one single-replay body: baseline, compile unless
// -O3, generate the trace, replay it on a. It returns the binary and the
// trace's complete-run count beside the result, so a caller that wants
// the image, the counters and cycles per run compiles once.
func (e *Evaluator) CompileAndRun(name string, c *opt.Config, a uarch.Config) (*codegen.Program, cpu.Result, int, error) {
	sl, err := e.baseline(name)
	if err != nil {
		return nil, cpu.Result{}, 0, err
	}
	p := sl.prog
	var tr *trace.Trace
	if *c == o3 {
		tr = e.baselineTrace(sl)
	} else {
		if p, err = e.compile(sl, c); err != nil {
			return nil, cpu.Result{}, 0, err
		}
		tr = e.pooledTrace(sl, p)
		defer trace.Put(tr)
	}
	return p, e.simulate(tr, a), max(tr.Runs, 1), nil
}
