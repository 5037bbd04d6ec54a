// Package sched decouples exploration-cell scheduling from cell
// execution. A Job describes a grid of independently executable cells; an
// Executor schedules them - in-process over a bounded worker pool
// (Local), or sharded over TCP to worker daemons (Remote), with Serve
// providing the daemon-side serve loop. The package is transport
// machinery only: it never inspects job specs or cell payloads. Both
// cross shard boundaries as bytes the application encodes
// (wire.Appender) and decodes itself: a daemon's ServeConfig.NewRun gets
// the spec as wire.Raw, and the coordinator hands each payload to the
// job's Decode. So any embarrassingly parallel grid whose spec and
// payloads carry a codec can ride it.
//
// Every executor honours the same deterministic error contract,
// inherited from the in-process pool it generalises: dispatch is in cell
// index order, dispatch stops on the first cell failure, already
// dispatched cells finish (and are still emitted), and the reported
// error is the lowest-indexed failing cell - independent of worker
// scheduling, shard count, or shard deaths.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"portcc/internal/wire"
)

// Job is one schedulable grid of cells.
type Job struct {
	// Spec is the description of the whole grid, shipped once per shard
	// connection as the bytes it appends, so a remote worker can execute
	// any cell (its ServeConfig.NewRun decodes them). Remote execution
	// requires it; local execution never touches it.
	Spec wire.Appender
	// Cells is the number of work cells in the grid; cell indices run
	// [0, Cells).
	Cells int
	// Format is the application schema version carried by the wire
	// handshake (for exploration jobs, dataset.FormatVersion): shards
	// built against a different schema are refused with a typed error.
	Format int
	// Run executes one cell in-process on a worker slot and returns its
	// payload. Local executors (and the daemon on the far side of a
	// Remote) call it with slot in [0, Workers(workers, n)); at most one
	// cell runs on a slot at a time, so per-slot state needs no locking.
	Run func(slot, index int) (any, error)
	// Decode turns the bytes of a payload that crossed the wire back
	// into the payload Run returned for cell index. The bytes belong to
	// the result, so the payload may keep them. An error means the shard sent
	// something that is not that cell's result: the connection ends as a
	// permanent shard failure and its unresolved cells requeue onto the
	// other shards. Without Decode, payloads are emitted as wire.Raw;
	// local execution never calls it.
	Decode func(index int, b []byte) (any, error)
}

// Executor schedules a job's cells, delivering each completed cell
// through emit exactly once. Emit may be called concurrently from
// multiple goroutines; it must return (possibly abandoning delivery)
// once ctx is cancelled, or the executor cannot drain. Execute blocks
// until every internal goroutine has exited and returns the number of
// cells completed plus the deterministic lowest-indexed cell error (nil
// if none). Pure context cancellation is not an error here: the caller
// distinguishes it by checking ctx.Err(), keeping cell failures ranked
// above cancellation.
type Executor interface {
	Execute(ctx context.Context, job Job, emit func(index int, payload any)) (done int, err error)
}

// Workers resolves a requested worker count against n jobs: <=0 selects
// GOMAXPROCS, and the pool never exceeds n. Run applies this clamp
// itself; callers sizing per-slot state use the same function so the
// slot range [0, Workers(workers, n)) is a single shared contract.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Run fans jobs 0..n-1 over a pool of Workers(workers, n) goroutines.
// work(slot, index) is called with slot in [0, Workers(workers, n));
// at most one job runs on a slot at a time, so per-slot state
// (evaluators, caches) needs no locking. Run blocks until every worker
// has exited and returns the number of jobs that completed successfully
// plus the lowest-indexed job error, nil if none. Context cancellation
// stops dispatch and skips remaining jobs promptly; the caller
// distinguishes it by checking ctx.Err() after Run returns.
func Run(ctx context.Context, workers, n int, work func(slot, index int) error) (done int, err error) {
	workers = Workers(workers, n)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstIdx  int
		firstErr  error
		stopped   atomic.Bool
		completed atomic.Int64
	)
	fail := func(idx int, err error) {
		mu.Lock()
		if firstErr == nil || idx < firstIdx {
			firstIdx, firstErr = idx, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	// Dispatch is in index order, so every job below a failing index has
	// already been handed out; running those (and only those) after a
	// failure makes the reported error the lowest failing index among
	// the dispatched jobs, independent of worker scheduling.
	skip := func(idx int) bool {
		if !stopped.Load() {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil && idx > firstIdx
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil || skip(idx) {
					continue
				}
				if err := work(slot, idx); err != nil {
					fail(idx, err)
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
dispatch:
	for i := 0; i < n; i++ {
		if stopped.Load() {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return int(completed.Load()), firstErr
}

// Local executes a job's cells in-process: the grid fans over a bounded
// worker pool via Run, with the pool's deterministic first-error and
// prompt-cancellation semantics.
type Local struct {
	// Workers bounds the pool (0 = GOMAXPROCS).
	Workers int
}

// Execute implements Executor.
func (l Local) Execute(ctx context.Context, job Job, emit func(index int, payload any)) (int, error) {
	return Run(ctx, l.Workers, job.Cells, func(slot, index int) error {
		payload, err := job.Run(slot, index)
		if err != nil {
			return err
		}
		emit(index, payload)
		return nil
	})
}
