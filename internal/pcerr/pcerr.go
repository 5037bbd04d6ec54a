// Package pcerr is the typed error vocabulary shared by the portcc facade
// and the internal pipeline packages. The sentinels support errors.Is and
// the structured types support errors.As, so callers (and, later, shard
// coordinators) can discriminate failures programmatically instead of
// matching message strings. The portcc package re-exports everything here.
package pcerr

import (
	"errors"
	"fmt"
)

var (
	// ErrUnknownProgram reports a benchmark name outside the suite.
	ErrUnknownProgram = errors.New("unknown program")
	// ErrInvalidConfig reports an optimisation, microarchitecture or
	// request configuration outside its legal space.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrDatasetVersion reports a dataset file whose schema version does
	// not match this build (including pre-versioning and foreign files),
	// or a worker shard built against a different schema version.
	ErrDatasetVersion = errors.New("dataset schema version mismatch")
	// ErrModelVersion reports a model artifact file whose schema version
	// does not match this build (including pre-versioning and foreign
	// files). Artifacts are regenerated from their dataset with
	// cmd/trainer -model-out.
	ErrModelVersion = errors.New("model artifact version mismatch")
	// ErrWireVersion reports a worker shard speaking an incompatible
	// coordinator/worker wire protocol version.
	ErrWireVersion = errors.New("wire protocol version mismatch")
	// ErrWireFrame reports bytes from a wire peer that are not a legal
	// frame: a length over the frame cap, an unknown kind, or a body
	// that does not decode to its kind's layout. The connection that
	// carried it is dropped; nothing from it is trusted.
	ErrWireFrame = errors.New("malformed wire frame")
	// ErrOverloaded reports a prediction server shedding load: admission
	// control found the bounded request queue full. The request was
	// refused before any work started; retry after the advertised delay.
	ErrOverloaded = errors.New("server overloaded")
	// ErrShardFailure reports distributed exploration that ran out of
	// worker shards: a dead shard's cells are requeued onto survivors and
	// dead connections are redialled with backoff, so this surfaces only
	// when every shard has burned its full retry budget. It wraps the
	// last shard's underlying error.
	ErrShardFailure = errors.New("shard failure")
	// ErrCellPoisoned reports a work cell quarantined by the coordinator:
	// every connection that was assigned the cell died before resolving
	// it, enough times in a row that the cell itself is the prime suspect
	// (a poison cell that crashes worker daemons). The cell surfaces as
	// the failure at its own grid index instead of riding reconnects
	// forever.
	ErrCellPoisoned = errors.New("cell poisoned")
	// ErrCellPanic reports a work cell whose runner panicked on a worker
	// daemon. The daemon recovers the panic and keeps serving; the cell
	// surfaces as an ordinary typed cell failure at its grid index.
	ErrCellPanic = errors.New("cell runner panicked")
	// ErrStoreCorrupt reports a result-store entry that failed
	// validation on read: truncated, bit-flipped, version-mismatched or
	// half-written. The store quarantines the entry and callers fall
	// back to recomputing the cell, so the error never carries wrong
	// data - only the fact that cached data was unusable.
	ErrStoreCorrupt = errors.New("result store entry corrupt")
	// ErrIndexStale reports a compile-index block of the result store
	// whose recorded fingerprints or run count disagree with what this
	// build compiles: the compiler changed without a core.Version bump
	// (or the block was tampered with). The block is quarantined and the
	// cell fails instead of continuing, because earlier cells of the same
	// window may already have been answered under the stale identity;
	// rerunning over the same store recompiles and is clean.
	ErrIndexStale = errors.New("result store compile index stale")
)

// SimError locates a failure inside the exploration grid: which program,
// which optimisation-setting index and which architecture index was being
// evaluated - 0, the first of the sample, for an exploration cell, which
// spans every architecture of the request. Index -1 means "not known in
// this context".
type SimError struct {
	Program string
	Setting int
	Arch    int
	Err     error
}

func (e *SimError) Error() string {
	return fmt.Sprintf("simulating %s (setting %d, arch %d): %v", e.Program, e.Setting, e.Arch, e.Err)
}

func (e *SimError) Unwrap() error { return e.Err }

// PartialError reports an operation that stopped early - typically by
// context cancellation - after completing Done of Total work cells. It
// wraps the cause, so errors.Is(err, context.Canceled) still holds.
type PartialError struct {
	Done, Total int
	Err         error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("stopped after %d/%d cells: %v", e.Done, e.Total, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }
