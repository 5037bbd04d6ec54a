package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"time"

	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/prog"
	"portcc/internal/sched"
	"portcc/internal/tune"
	"portcc/internal/uarch"
	"portcc/internal/wire"
)

// ExploreRequest is a serialisable description of a design-space
// exploration grid: every sampled optimisation setting of every program is
// compiled once and replayed over the architecture sample - one work cell
// per (program, setting), each the whole sample in one batched replay. It
// carries no functions or session state, so the coordinator ships it to
// worker shards as-is, as JSON (AppendWire, decodeRequest).
type ExploreRequest struct {
	// Programs are benchmark names from the suite.
	Programs []string
	// Opts are the optimisation settings evaluated for every program.
	Opts []opt.Config
	// Archs is the microarchitecture sample every compiled trace is
	// replayed over.
	Archs []uarch.Config
	// Eval carries the workload-scaling parameters for the evaluators.
	Eval EvalConfig
	// Naive bypasses the sweep state (compile index, window FIFO, twin
	// replay memo, result store): every cell compiles, traces and replays
	// its own setting independently. The produced results (and any saved
	// dataset) are bit-identical either way; the naive path is the
	// equivalence oracle the batched path is byte-compared against (CI's
	// "Batched path matches naive path" step). The field rides to worker
	// shards with the request, so a sharded run honours it on every
	// daemon.
	Naive bool
}

// Validate checks the request against the benchmark suite and the legal
// microarchitecture space, wrapping the typed sentinels.
func (r *ExploreRequest) Validate() error {
	if len(r.Programs) == 0 || len(r.Opts) == 0 || len(r.Archs) == 0 {
		return fmt.Errorf("dataset: %w: explore request needs programs, opts and archs", pcerr.ErrInvalidConfig)
	}
	seen := make(map[string]bool, len(r.Programs))
	for _, name := range r.Programs {
		if !prog.Known(name) {
			return fmt.Errorf("dataset: %w: %q", pcerr.ErrUnknownProgram, name)
		}
		// A duplicate would double-count cells and corrupt per-program
		// indexing in every consumer that folds by ProgIndex.
		if seen[name] {
			return fmt.Errorf("dataset: %w: duplicate program %q", pcerr.ErrInvalidConfig, name)
		}
		seen[name] = true
	}
	for i, a := range r.Archs {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("dataset: arch %d: %w", i, err)
		}
	}
	// Settings arrive from outside too (a hand-built request, a job spec
	// off the wire); a level past the space would index out of range in
	// the compiler.
	for i := range r.Opts {
		if err := r.Opts[i].Validate(); err != nil {
			return fmt.Errorf("dataset: setting %d: %w", i, err)
		}
	}
	return nil
}

// AppendWire implements wire.Appender: the request as one JSON object,
// the spec a coordinator ships to each shard connection.
func (r ExploreRequest) AppendWire(b []byte) []byte {
	// Every field is an integer, a bool, a string, or an array or slice
	// of them, which JSON always encodes.
	j, _ := json.Marshal(r)
	return append(b, j...)
}

// decodeRequest reads a job spec in AppendWire's layout: one JSON object
// naming no field ExploreRequest lacks, with nothing after it. Anything
// else fails with pcerr.ErrInvalidConfig. A first pass counts each
// slice's elements, so the decoding pass fills slices allocated once
// instead of growing them, and memory stays within a small multiple of
// len(b). The request is not validated.
func decodeRequest(b []byte) (ExploreRequest, error) {
	var req ExploreRequest
	var n struct{ Programs, Opts, Archs arrayLen }
	err := json.Unmarshal(b, &n) // refuses malformed input and trailing bytes
	if err == nil {
		req.Programs = make([]string, 0, n.Programs)
		req.Opts = make([]opt.Config, 0, n.Opts)
		req.Archs = make([]uarch.Config, 0, n.Archs)
		d := json.NewDecoder(bytes.NewReader(b))
		d.DisallowUnknownFields()
		err = d.Decode(&req)
	}
	if err != nil {
		return ExploreRequest{}, fmt.Errorf("dataset: %w: job spec: %v", pcerr.ErrInvalidConfig, err)
	}
	return req, nil
}

// arrayLen is the element count of a JSON array: the largest under its
// field name, which JSON may repeat. Anything but an array counts 0.
type arrayLen int

func (n *arrayLen) UnmarshalJSON(b []byte) error {
	var elems []skip
	json.Unmarshal(b, &elems) // not an array: the decoding pass says so
	*n = max(*n, arrayLen(len(elems)))
	return nil
}

// skip takes any JSON value and keeps none of it, so a []skip counts
// elements without allocating for them.
type skip struct{}

func (skip) UnmarshalJSON([]byte) error { return nil }

// Cells returns the number of work cells the request fans out to, one
// per (program, setting) (0 for a request with an empty dimension, which
// Validate rejects).
func (r *ExploreRequest) Cells() int {
	if len(r.Archs) == 0 {
		return 0
	}
	return len(r.Programs) * len(r.Opts)
}

// ExploreResult is one completed work cell: the program compiled under one
// optimisation setting, replayed over the request's architecture sample.
// Shards stream results back over the wire in AppendWire's layout, and
// the coordinator rebuilds them against its request (decodeWire).
type ExploreResult struct {
	// ProgIndex and OptIndex locate the cell in the request grid;
	// Results[i] belongs to Archs[i].
	ProgIndex, OptIndex int
	// Program and Config echo the cell inputs for self-contained use.
	Program string
	Config  opt.Config
	// Runs is the complete-program-run count of the trace; divide Cycles
	// by it for the work-normalised metric.
	Runs int
	// Results holds the per-architecture counters, in Archs order.
	Results []cpu.Result
}

// wireHead is AppendWire's fixed part: ProgIndex, OptIndex and Runs.
const wireHead = 3 * 8

// AppendWire implements wire.Appender: ProgIndex, OptIndex and Runs as
// little-endian u64s, then Results in the result store's counter codec
// (appendResults). Program, Config and each Result.Config are echoes of
// the request, which the receiving side already holds, so they stay off
// the wire.
func (r ExploreResult) AppendWire(b []byte) []byte {
	le := binary.LittleEndian.AppendUint64
	b = le(b, uint64(r.ProgIndex))
	b = le(b, uint64(r.OptIndex))
	b = le(b, uint64(r.Runs))
	return appendResults(b, r.Results)
}

// decodeWire rebuilds the result of cell index from the bytes a shard
// sent in AppendWire's layout. The grid position must be that cell's,
// the run count positive and the counters one per architecture of the
// sample; Program, Config and each Result.Config come from the request.
// Anything else fails with pcerr.ErrShardFailure.
func (r *ExploreRequest) decodeWire(index int, b []byte) (ExploreResult, error) {
	if index < 0 || index >= r.Cells() {
		return ExploreResult{}, fmt.Errorf("dataset: %w: result for cell %d of a %d-cell grid", pcerr.ErrShardFailure, index, r.Cells())
	}
	if len(b) < wireHead {
		return ExploreResult{}, fmt.Errorf("dataset: %w: cell %d: %d-byte result", pcerr.ErrShardFailure, index, len(b))
	}
	c := r.cell(index)
	u := binary.LittleEndian.Uint64
	if p, o := u(b), u(b[8:]); p != uint64(c.prog) || o != uint64(c.opt) {
		return ExploreResult{}, fmt.Errorf("dataset: %w: cell %d is (program %d, setting %d), its result names (%d, %d)",
			pcerr.ErrShardFailure, index, c.prog, c.opt, p, o)
	}
	runs := u(b[16:])
	if runs < 1 || runs > math.MaxInt32 {
		return ExploreResult{}, fmt.Errorf("dataset: %w: cell %d: run count %d", pcerr.ErrShardFailure, index, runs)
	}
	results, err := decodeResults(b[wireHead:], r.Archs)
	if err != nil {
		return ExploreResult{}, fmt.Errorf("dataset: %w: cell %d: %v", pcerr.ErrShardFailure, index, err)
	}
	return ExploreResult{
		ProgIndex: c.prog,
		OptIndex:  c.opt,
		Program:   r.Programs[c.prog],
		Config:    r.Opts[c.opt],
		Runs:      int(runs),
		Results:   results,
	}, nil
}

// ExploreOptions carries the execution (not work-unit) parameters of an
// exploration: they stay on the driving side and are never serialised.
type ExploreOptions struct {
	// Workers bounds the in-process worker pool (0 = GOMAXPROCS).
	// Ignored when Shards is set: parallelism then lives on the shards.
	Workers int
	// Progress, when set, is called after each completed cell with the
	// number of completed cells and the total. Calls are serialised.
	Progress func(done, total int)
	// Shards, when non-empty, ships the grid's cells to portccd worker
	// daemons at these host:port addresses instead of executing locally.
	// Cells from a dead shard requeue onto the survivors; the merged
	// stream is bit-identical to a local run of the same request.
	Shards []string
	// Retry governs how hard the coordinator fights to keep shard
	// connections alive: dead connections are redialled with exponential
	// backoff up to Retry.MaxAttempts per shard, and cells repeatedly
	// stranded by dying connections are quarantined after
	// Retry.MaxStrands strandings. The zero value applies the scheduler
	// defaults. Ignored for local runs.
	Retry sched.RetryPolicy
	// Naive forces the per-cell path, past the sweep state (see
	// ExploreRequest.Naive).
	Naive bool
	// SweepWorkers bounds the per-geometry sweep parallelism inside each
	// worker slot's batched replays: 0 auto-tunes (the slots divide
	// GOMAXPROCS between cell fan-out and sweeps, see internal/tune),
	// n >= 1 pins an explicit per-slot share. Results are bit-identical
	// at every setting. Like Workers it is an execution parameter: a
	// sharded run's sweeps are sized daemon-side (portccd -sweep-workers).
	SweepWorkers int
	// Store, when set, is the persistent content-addressed result store
	// the batched path answers replays from and commits them to, making
	// generation resumable: a run killed mid-flight restarts with most
	// cells served from disk and a byte-identical dataset. A tiered
	// store (OpenResultStoreRemote) additionally consults the fleet's
	// shared store service and commits fresh replays there, so one
	// machine's work answers every machine's lookups; every service
	// failure degrades to a local miss. Like Workers it is an execution
	// parameter and never serialised; a sharded run's stores live
	// daemon-side (portccd -store / -store-remote).
	Store *ResultStore
}

// executor picks the scheduling backend the options describe.
func (o *ExploreOptions) executor() sched.Executor {
	if len(o.Shards) > 0 {
		return &sched.Remote{Addrs: o.Shards, Retry: o.Retry}
	}
	return sched.Local{Workers: o.Workers}
}

// exploreCell is one unit of fan-out work.
type exploreCell struct {
	prog, opt int
}

// cell locates dispatch index i in the grid: program-major, settings
// inner, so one program's cells are adjacent and the slots serving them
// share its windows while they are built.
func (r *ExploreRequest) cell(i int) exploreCell {
	return exploreCell{prog: i / len(r.Opts), opt: i % len(r.Opts)}
}

// runCell compiles the cell's setting, generates its trace and replays it
// over the architecture sample, sharing nothing with any other cell but
// the program's baseline slot.
func runCell(ev *Evaluator, req *ExploreRequest, c exploreCell) (ExploreResult, error) {
	name := req.Programs[c.prog]
	cfg := req.Opts[c.opt]
	tr, _, err := ev.Trace(name, &cfg)
	if err != nil {
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Err: err}
	}
	return ExploreResult{
		ProgIndex: c.prog,
		OptIndex:  c.opt,
		Program:   name,
		Config:    cfg,
		Runs:      max(tr.Runs, 1),
		Results:   ev.SimulateBatch(tr, req.Archs),
	}, nil
}

// RunnerStore returns the in-process cell-execution function of the
// request's grid - the Job.Run both the local executor and the worker
// daemon (cmd/portccd) plug into the scheduler. Each worker slot gets a
// private evaluator (its own work ledger), all sharing one pool base so
// a program's cells spread over many slots build each module and compile
// each -O3 probe once, not once per slot. Unless the request asks for
// the naive path, the slots additionally share a sweep state that
// resolves each program's settings in windows of one compile-index block
// and deduplicates trace generation and replay across settings whose
// binaries came out byte-identical. The request must already be
// validated.
//
// slots bounds the slot space: callers must derive it with sched.Workers
// so it matches the pool's slot contract. sweepWorkers is the per-slot
// budget of the batched replays inside each cell (0 auto-tunes: leftover
// cores the slot fan-out cannot occupy go to each slot's sweeps, see
// internal/tune). st is a persistent result store every slot's evaluator
// answers replays from and commits them to (nil = none). Results are
// bit-identical at every sweepWorkers and with or without a store.
func (r *ExploreRequest) RunnerStore(slots, sweepWorkers int, st *ResultStore) func(slot, index int) (any, error) {
	run, _ := r.runner(slots, sweepWorkers, st)
	return run
}

// InstrumentedRunnerStore is RunnerStore with one worker slot and
// sequential sweeps, returning the slot's evaluator alongside so a
// caller driving the grid itself can read the work counters (Stats)
// afterwards, with a store attached or not (nil = none). Two callers
// remain: bench/staged.go, for the dataset.* work counters of the one
// benchmark, and sweep_test.go, which pins those counters.
func (r *ExploreRequest) InstrumentedRunnerStore(st *ResultStore) (func(slot, index int) (any, error), *Evaluator) {
	run, evs := r.runner(1, 1, st)
	evs[0] = NewEvaluator(r.Eval)
	evs[0].SetSweepWorkers(1)
	if st != nil {
		evs[0].SetStore(st)
	}
	return run, evs[0]
}

func (r *ExploreRequest) runner(slots, sweepWorkers int, st *ResultStore) (func(slot, index int) (any, error), []*Evaluator) {
	base := newSharedBase()
	evs := make([]*Evaluator, slots)
	var sw *sweepState
	if !r.Naive {
		sw = newSweepState(r)
	}
	if sweepWorkers <= 0 {
		// Auto-tune: the slot fan-out claims the machine first, and each
		// slot's replays sweep over the cores the fan-out cannot occupy.
		_, sweepWorkers = tune.Split(0, slots, len(r.Archs))
	}
	return func(slot, index int) (any, error) {
		if evs[slot] == nil {
			evs[slot] = newEvaluatorWith(r.Eval, base)
			evs[slot].SetSweepWorkers(sweepWorkers)
			if st != nil {
				evs[slot].SetStore(st)
			}
		}
		var res ExploreResult
		var err error
		if sw != nil {
			res, err = runCellBatched(evs[slot], sw, r.cell(index))
		} else {
			res, err = runCell(evs[slot], r, r.cell(index))
		}
		if err != nil {
			return nil, err
		}
		return res, nil
	}, evs
}

// ServeConfigStore returns the scheduler serve configuration of an
// exploration worker: decode job specs as ExploreRequests, validate them
// against this build's suite and spaces, and run cells on pooled
// evaluators. cmd/portccd wraps exactly this; tests drive it in-process.
// sweepWorkers is the per-slot budget of the batched replays (0
// auto-tunes against the daemon's GOMAXPROCS; portccd exposes it as
// -sweep-workers). st is a persistent result store shared by every run
// the daemon serves (nil = none; portccd's -store flags): a daemon
// restarted after a crash answers the resubmitted grid's replays from
// disk. Streams are bit-identical at every setting of either.
func ServeConfigStore(workers, sweepWorkers int, heartbeat time.Duration, st *ResultStore) sched.ServeConfig {
	return sched.ServeConfig{
		Format:    FormatVersion,
		Workers:   workers,
		Heartbeat: heartbeat,
		NewRun: func(spec any) (func(slot, index int) (any, error), error) {
			raw, ok := spec.(wire.Raw)
			if !ok {
				return nil, fmt.Errorf("dataset: %w: job spec is %T, want wire.Raw", pcerr.ErrInvalidConfig, spec)
			}
			req, err := decodeRequest(raw)
			if err != nil {
				return nil, err
			}
			if err := req.Validate(); err != nil {
				return nil, err
			}
			return req.RunnerStore(sched.Workers(workers, req.Cells()), sweepWorkers, st), nil
		},
	}
}

// Explore streams the request's grid through a scheduler executor,
// yielding cells as they complete (completion order is scheduling-
// dependent; use the indices in each result). It is the single
// exploration engine: Generate, the portcc Session facade and the
// experiment drivers all sit on top of it. Without Shards the cells fan
// over the in-process worker pool; with Shards they ship to portccd
// worker daemons as wire frames over TCP (the request once, as JSON;
// each result in its own fixed-width codec), with identical semantics
// and a merged stream bit-identical to the local run.
//
// Semantics:
//
//   - Each grid cell is yielded exactly once, or not at all after a
//     failure or cancellation.
//   - On a cell failure, dispatch stops, already-dispatched cells finish
//     (their results are still yielded), and the terminal yield carries
//     the error of the lowest-indexed failing cell - deterministic under
//     any worker schedule or shard layout.
//   - A dead shard connection is not a failure: its unfinished cells
//     requeue onto the survivors while the coordinator redials the shard
//     with exponential backoff (ExploreOptions.Retry). Only when every
//     shard has exhausted its retry budget does the terminal yield carry
//     an error wrapping pcerr.ErrShardFailure. A cell that repeatedly
//     strands dying connections is quarantined as pcerr.ErrCellPoisoned
//     at its own index; a cell whose runner panics on the daemon fails
//     typed as pcerr.ErrCellPanic without killing the daemon.
//   - On context cancellation the workers drain promptly without leaking
//     goroutines and the terminal yield carries a *pcerr.PartialError
//     wrapping ctx.Err() with done/total cell counts.
//   - Breaking out of the loop early cancels and drains the executor
//     before the iterator returns.
func Explore(ctx context.Context, req ExploreRequest, o ExploreOptions) iter.Seq2[ExploreResult, error] {
	return func(yield func(ExploreResult, error) bool) {
		if o.Naive {
			req.Naive = true
		}
		if err := req.Validate(); err != nil {
			yield(ExploreResult{}, err)
			return
		}
		total := req.Cells()

		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		results := make(chan ExploreResult)

		job := sched.Job{Spec: req, Cells: total, Format: FormatVersion,
			Decode: func(index int, b []byte) (any, error) { return req.decodeWire(index, b) }}
		if len(o.Shards) == 0 {
			// Remote execution never runs cells coordinator-side; the
			// evaluator pool exists only on the local path, so sharded
			// runs do not allocate a dead runner.
			job.Run = req.RunnerStore(sched.Workers(o.Workers, total), o.SweepWorkers, o.Store)
		}
		var firstErr error
		go func() {
			defer close(results)
			_, firstErr = o.executor().Execute(ictx, job, func(index int, payload any) {
				// The local runner and Decode both yield ExploreResults.
				select {
				case results <- payload.(ExploreResult):
				case <-ictx.Done():
				}
			})
		}()
		// drain cancels the executor and blocks until every worker has
		// exited (results closes only after Execute returns), so no
		// goroutine outlives the iterator.
		drain := func() {
			cancel()
			for range results {
			}
		}

		done := 0
		for res := range results {
			done++
			if o.Progress != nil {
				o.Progress(done, total)
			}
			if !yield(res, nil) {
				drain()
				return
			}
		}
		// The executor has fully drained here: results is closed, so
		// firstErr is visible. A real cell failure outranks
		// cancellation: it stopped dispatch first and locates the
		// broken cell, which a bare PartialError hides.
		if firstErr != nil {
			yield(ExploreResult{}, firstErr)
			return
		}
		// A cancellation that races the final cell must not discard a
		// fully completed grid: only report partial progress when cells
		// were actually lost.
		if err := ctx.Err(); err != nil && done < total {
			yield(ExploreResult{}, &pcerr.PartialError{Done: done, Total: total, Err: err})
		}
	}
}
