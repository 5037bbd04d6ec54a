package portcc

import "portcc/internal/dataset"

// ResultStore is a persistent, content-addressed, crash-safe on-disk
// cache of replay results. Attached to a session (WithResultStore),
// exploration and dataset generation answer replays whose inputs -
// binary fingerprint, workload parameters, architecture sample, replay
// model version - match a stored entry from disk, and commit fresh
// replays back.
//
// The contract is strict: results are bit-identical with or without a
// store. A generation run killed mid-flight (kill -9 included) resumes
// from the same directory with most cells served from disk and a
// byte-identical dataset. Corrupt entries (truncated, bit-flipped,
// version-mismatched, half-written) are detected by an end-to-end
// checksum, quarantined aside and recomputed; store I/O failures (full
// disk, dead device) degrade the run to cold-cache speed, never to
// wrong data or an abort.
type ResultStore = dataset.ResultStore

// OpenResultStore opens (creating if needed) a result store rooted at
// dir, bounded to budget bytes (0 = unbounded; least-recently-used
// entries are evicted beyond the budget). Orphan temp files from
// crashed writers are cleaned up and the index is rebuilt from the
// entry files, so any surviving directory state opens.
func OpenResultStore(dir string, budget int64) (*ResultStore, error) {
	return dataset.OpenResultStore(dir, budget)
}

// OpenResultStoreRemote opens a tiered result store: the local
// directory at dir (optional - empty means no local tier) backed by
// the shared store service at addr (a running portccsd), so a fleet of
// workers reuses one replay cache. Lookups check local first, then the
// service, writing remote hits back locally; commits go to both. Every
// service failure mode - dead process, torn frames, slow replies,
// version skew - degrades to a local miss bounded in time: datasets
// stay byte-identical whether the service is healthy, slow, or gone.
func OpenResultStoreRemote(dir string, budget int64, addr string) (*ResultStore, error) {
	return dataset.OpenResultStoreRemote(dir, budget, addr)
}

// WithResultStore attaches a persistent result store to the session's
// sweeps: Explore and GenerateDataset answer matching replays from it
// and commit fresh ones. The single-run methods never touch it (see
// Session). Pass the same store to successive sessions (or reopen its
// directory across process restarts) to make exploration resumable.
// The caller owns Close.
func WithResultStore(rs *ResultStore) Option {
	return func(c *sessionConfig) { c.explore.Store = rs }
}
