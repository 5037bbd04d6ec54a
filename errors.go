package portcc

import "portcc/internal/pcerr"

// The typed error vocabulary of the public API. Every long-running
// operation returns errors that discriminate with errors.Is/errors.As
// instead of requiring message matching:
//
//	_, err := s.Run(ctx, "no-such-benchmark", portcc.O3(), arch)
//	if errors.Is(err, portcc.ErrUnknownProgram) { ... }
//
//	var se *portcc.SimError
//	if errors.As(err, &se) { log.Printf("cell (%s, %d, %d) failed", se.Program, se.Setting, se.Arch) }
var (
	// ErrUnknownProgram reports a benchmark name outside the 35-program
	// suite (see Programs).
	ErrUnknownProgram = pcerr.ErrUnknownProgram
	// ErrInvalidConfig reports an optimisation setting,
	// microarchitecture or request outside its legal space.
	ErrInvalidConfig = pcerr.ErrInvalidConfig
	// ErrDatasetVersion reports a dataset file whose schema version does
	// not match this build (LoadDataset), or a portccd worker shard
	// built against a different schema version (WithShards).
	ErrDatasetVersion = pcerr.ErrDatasetVersion
	// ErrModelVersion reports a model artifact file whose schema version
	// does not match this build (LoadModel). Artifacts are regenerated
	// from their dataset with cmd/trainer -model-out.
	ErrModelVersion = pcerr.ErrModelVersion
	// ErrWireVersion reports a portccd worker shard speaking an
	// incompatible coordinator/worker wire protocol version.
	ErrWireVersion = pcerr.ErrWireVersion
	// ErrWireFrame reports a worker shard or store service whose bytes
	// are not a legal wire frame (oversize, unknown kind, or a body that
	// does not decode); the connection is dropped like a dead one.
	ErrWireFrame = pcerr.ErrWireFrame
	// ErrOverloaded reports a prediction server (internal/serve, served
	// by cmd/portccs) shedding load: the bounded request queue was full,
	// the request was refused before any work started (HTTP 429 with a
	// Retry-After header), and a retry after the advertised delay is
	// safe.
	ErrOverloaded = pcerr.ErrOverloaded
	// ErrShardFailure reports a sharded exploration that ran out of
	// worker shards: dead connections redial with backoff and their
	// cells requeue onto survivors, so this surfaces only when every
	// shard has exhausted its retry budget (WithShardRetry). It wraps
	// the last shard's underlying error.
	ErrShardFailure = pcerr.ErrShardFailure
	// ErrCellPoisoned reports a work cell quarantined after stranding
	// too many dying shard connections in a row (RetryPolicy.MaxStrands)
	// - the distributed analogue of a crash loop pinned to one input.
	// The sharded run fails at that cell's index instead of burning
	// every shard's retry budget on it.
	ErrCellPoisoned = pcerr.ErrCellPoisoned
	// ErrCellPanic reports a work cell whose runner panicked on a worker
	// daemon. The daemon survives (the panic is recovered and shipped
	// back typed), the run stops at the panicking cell's index, and the
	// error is not a shard failure: the shard stays healthy.
	ErrCellPanic = pcerr.ErrCellPanic
	// ErrStoreCorrupt reports a persistent result-store entry
	// (WithResultStore) that failed validation on read: truncated,
	// bit-flipped, version-mismatched or half-written. The store
	// quarantines the entry and the replay is recomputed, so the error
	// never surfaces from session methods - it is observable in the
	// store's Stats and logs only, and never carries wrong data.
	ErrStoreCorrupt = pcerr.ErrStoreCorrupt
	// ErrIndexStale reports a result-store compile-index block whose
	// recorded binary identities disagree with what this build compiles
	// (a compiler change that did not bump core.Version). The block is
	// quarantined and the run fails at that cell rather than mixing
	// identities; a rerun over the same store is clean.
	ErrIndexStale = pcerr.ErrIndexStale
)

type (
	// SimError locates a failure inside an exploration grid: program
	// name, optimisation-setting index, and the first architecture index
	// of the failing batch (-1 where unknown).
	SimError = pcerr.SimError
	// PartialError reports work stopped early - typically by context
	// cancellation - carrying how many of the total work cells finished.
	// It wraps the cause, so errors.Is(err, context.Canceled) holds.
	PartialError = pcerr.PartialError
)
