package portcc

import (
	"context"
	"iter"

	"portcc/internal/dataset"
)

type (
	// ExploreRequest describes a design-space exploration grid: every
	// optimisation setting of every program compiled once and replayed
	// over the architecture sample, fanned out as one work cell per
	// (program, setting). It is a plain value that crosses to worker
	// shards as JSON (its AppendWire) - the unit a coordinator ships.
	ExploreRequest = dataset.ExploreRequest
	// ExploreResult is one completed work cell, locating itself in the
	// request grid via ProgIndex/OptIndex, with one result per
	// architecture of the request in order. Shards stream it back in its
	// own fixed-width codec (AppendWire).
	ExploreResult = dataset.ExploreResult
)

// Explore streams the request's grid through the session's worker pool,
// yielding cells as they complete:
//
//	for res, err := range s.Explore(ctx, req) {
//		if err != nil { ... }        // terminal: lowest-index failure, or cancellation
//		use(res)                     // partial results arrive as they finish
//	}
//
// Every grid cell is yielded exactly once. On failure, dispatch stops,
// in-flight cells still arrive, and the terminal yield carries the error
// of the lowest-indexed failing cell (deterministic under any worker
// schedule). On cancellation the pool drains promptly and the terminal
// error is a *PartialError wrapping ctx.Err(). Breaking out of the loop
// early cancels and drains the pool. If the request does not pin Eval,
// the session's workload scale is used.
//
// Explore runs on dataset.Explore, the engine GenerateDataset and
// cmd/expgen run on too. With WithShards the cells ship to portccd
// worker daemons over TCP (dead shards requeue onto survivors) and the
// stream is bit-identical to a local run; without it they fan over the
// in-process pool.
func (s *Session) Explore(ctx context.Context, req ExploreRequest) iter.Seq2[ExploreResult, error] {
	if req.Eval == (dataset.EvalConfig{}) {
		// Same derivation as NewExploreRequest/GenerateDataset, so a
		// hand-built request folds to the same cycle counts as the
		// session's own dataset path.
		req.Eval = s.genConfig(false).Eval
	}
	return dataset.Explore(ctx, req, s.cfg.explore)
}

// genConfig is the single place the session turns its scale into a
// dataset generation config - Explore, NewExploreRequest and
// GenerateDataset must all derive Eval identically.
func (s *Session) genConfig(extended bool) dataset.GenConfig {
	return s.scale().GenConfig(extended)
}

// NewExploreRequest builds the work grid GenerateDataset would run at the
// session's scale, for callers that want to stream (or shard) it
// themselves.
func (s *Session) NewExploreRequest(extended bool) (ExploreRequest, error) {
	return s.genConfig(extended).Request()
}

// GenerateDataset produces the Section 3.2 training dataset at the
// session's scale by folding the Explore stream: speedup of every sampled
// setting over -O3 plus the -O3 feature vectors, for every (program,
// architecture) pair.
func (s *Session) GenerateDataset(ctx context.Context, extended bool) (*Dataset, error) {
	return dataset.GenerateWith(ctx, s.genConfig(extended), s.cfg.explore)
}

// LoadDataset reads a dataset file written by Dataset.Save (cmd/trainer),
// returning ErrDatasetVersion if the file's schema version does not match
// this build.
func LoadDataset(path string) (*Dataset, error) {
	return dataset.Load(path)
}
