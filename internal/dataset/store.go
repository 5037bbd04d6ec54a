// The persistent result store: a content-addressed on-disk cache with
// two entry kinds in one store.Backend. Result entries hold one replay's
// per-architecture counters, keyed by binary fingerprint (identical
// placed image => identical trace under a fixed seed), workload
// parameters, architecture range and the trace and replay versions.
// Compile-index blocks hold what that key needs and only a compile
// could otherwise tell - the fingerprints of indexBlock consecutive
// settings of one program's sweep, and its run count - keyed by module
// hash, settings, workload parameters and core.Version, so a resumed
// run compiles nothing and, even after kill -9, answers its cells from
// disk and produces byte-identical datasets.
//
// Store failures are never failures of the run. Every Get/Put error is
// absorbed into counters: corrupt entries are quarantined (typed
// pcerr.ErrStoreCorrupt inside the store) and recomputed, ENOSPC/EIO
// degrade Puts to cache misses, a dead store directory degrades the
// whole run to cold-cache speed. A hit is the same computation as long
// as core.Version, trace.Version and cpu.ReplayVersion are bumped with
// the behaviour they name (TestVersionsPinBehaviour holds them to a
// committed record); payloads carry the store's checksum, and a setting
// that does compile checks its indexed fingerprint (ErrIndexStale).
package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/faultfs"
	"portcc/internal/opt"
	"portcc/internal/store"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// The key schemas version the key-material layouts below; bump on any
// change so old entries become unreachable rather than misinterpreted.
const (
	resultKeySchema = 2
	indexKeySchema  = 1
)

// indexBlock is the settings per compile-index entry, and per sweep
// window: a runner that executes a cell commits the cell's block,
// whatever the slot count or shard layout. fpLen: a fingerprint's width.
const (
	indexBlock = 8
	fpLen      = len(codegen.Fingerprint{})
)

// resultFields is the number of uint64 counters in cpu.Result, the
// fixed part of the payload codec (EnergyNJ rides as float64 bits).
const resultFields = 18

// ResultStore adapts the generic content-addressed store to the
// dataset pipeline: it derives keys from replay inputs and encodes
// result batches with a deterministic fixed-width codec (no gob - the
// payload bytes must be identical across processes and runs so the
// store stays content-addressed in spirit as well as in key).
//
// All methods are safe for concurrent use and absorb store failures:
// Get returns ok=false on miss, corruption (quarantined inside the
// store) and I/O trouble alike; Put's failures only show in Stats.
//
// The backend may be a local directory (OpenResultStore), a
// local-then-remote tier over a shared store service or that service's
// client alone (OpenResultStoreRemote), or anything else satisfying
// store.Backend; the pipeline above this seam cannot tell them apart,
// which is the point - datasets are byte-identical under every backend
// and every backend failure.
type ResultStore struct {
	s store.Backend
	// Compile-index lookups: store.Stats cannot tell the kinds apart.
	blockHits, blockMisses, blockCorrupt atomic.Int64
}

// OpenResultStore opens (creating if needed) a result store rooted at
// dir, bounded to budget bytes (0 = unbounded).
func OpenResultStore(dir string, budget int64) (*ResultStore, error) {
	return OpenResultStoreFS(dir, budget, "", nil)
}

// OpenResultStoreRemote opens a tiered result store: the local
// directory at dir backed by the store service at addr. Gets check
// local first, then the service, writing remote hits back; Puts commit
// to both, so every shard's work is shared fleet-wide. With dir empty
// (a shard with no cache disk) the store is the service client itself.
// The service connection is dialled lazily and every transport failure
// - dead service, torn frame, slow reply, version skew - degrades to a
// local miss, bounded in time: a run with the service down is just a
// run with a cold shared tier.
func OpenResultStoreRemote(dir string, budget int64, addr string) (*ResultStore, error) {
	return OpenResultStoreFS(dir, budget, addr, nil)
}

// OpenResultStoreFS is the one opener under both: a local tier on fs (nil
// = the OS), tiered over the service at addr if set; with addr set and
// dir "", the service client alone.
func OpenResultStoreFS(dir string, budget int64, addr string, fs faultfs.FS) (*ResultStore, error) {
	remoteOpts := store.RemoteOptions{Addr: addr, Format: FormatVersion}
	if addr != "" && dir == "" {
		return &ResultStore{s: store.NewRemote(remoteOpts)}, nil
	}
	local, err := store.Open(store.Options{Dir: dir, Budget: budget, FS: fs})
	if err != nil {
		return nil, err
	}
	if addr == "" {
		return &ResultStore{s: local}, nil
	}
	return &ResultStore{s: store.NewTiered(local, store.NewRemote(remoteOpts))}, nil
}

// Close releases the store: a remote tier's connection is closed, and a
// local directory holds nothing open.
func (rs *ResultStore) Close() error { return rs.s.Close() }

// Stats returns the underlying store's operation ledger, store-global
// (evaluators sharing one store share one ledger) and over both entry
// kinds: Hits, Misses, Puts and Entries include compile-index blocks.
func (rs *ResultStore) Stats() store.Stats { return rs.s.Stats() }

// IndexStats is the compile-index share of the ledger: blocks answered,
// blocks that had to compile, blocks quarantined (malformed or stale).
func (rs *ResultStore) IndexStats() (hits, misses, quarantined int64) {
	return rs.blockHits.Load(), rs.blockMisses.Load(), rs.blockCorrupt.Load()
}

// resultKey derives the content address of one replay: everything the
// produced counters depend on is hashed in. The binary fingerprint
// stands in for (program, optimisation setting) - byte-identical
// binaries yield identical traces under a fixed seed, so twin settings
// share entries by design, exactly like the in-memory replay memo.
func resultKey(fp codegen.Fingerprint, runs int, cfg EvalConfig, archs []uarch.Config) store.Key {
	le := binary.LittleEndian.AppendUint64
	m := append(make([]byte, 0, 128+len(archs)*80), "portcc-result\n"...)
	for _, v := range []uint64{resultKeySchema, FormatVersion, trace.Version, cpu.ReplayVersion} {
		m = le(m, v)
	}
	m = append(m, fp[:]...)
	for _, v := range []int{runs, int(cfg.Seed), cfg.MaxInsns, len(archs)} {
		m = le(m, uint64(v))
	}
	for _, a := range archs {
		for _, v := range []int{
			a.IL1Size, a.IL1Assoc, a.IL1Block,
			a.DL1Size, a.DL1Assoc, a.DL1Block,
			a.BTBSize, a.BTBAssoc, a.FreqMHz, a.Width,
		} {
			m = le(m, uint64(v))
		}
	}
	return store.KeyOf(m)
}

// blockKey addresses one compile-index block by everything its binaries
// and run count depend on: the program's IR (the name would survive an
// edit to internal/prog), the settings in order, the probe's parameters.
func blockKey(name string, module [32]byte, cfgs []opt.Config, cfg EvalConfig) store.Key {
	le := binary.LittleEndian.AppendUint64
	m := append(make([]byte, 0, 128+len(name)+len(cfgs)*(opt.NumFlags+opt.NumParams)), "portcc-index\n"...)
	for _, v := range []uint64{indexKeySchema, FormatVersion, core.Version, uint64(len(name))} {
		m = le(m, v)
	}
	m = append(append(m, name...), module[:]...)
	for _, v := range []int{cfg.TargetInsns, cfg.MaxInsns, int(cfg.Seed), len(cfgs)} {
		m = le(m, uint64(v))
	}
	for i := range cfgs {
		m = append(m, cfgs[i].Key()...)
	}
	return store.KeyOf(m)
}

// encodeBlock packs a block's identities, fixed-width like
// encodeResults: u64 runs, u64 count, then the 32-byte fingerprints.
func encodeBlock(runs int, fps []codegen.Fingerprint) []byte {
	le := binary.LittleEndian.AppendUint64
	out := le(le(make([]byte, 0, 16+len(fps)*fpLen), uint64(runs)), uint64(len(fps)))
	for i := range fps {
		out = append(out, fps[i][:]...)
	}
	return out
}

// decodeBlock unpacks a block of n settings; like decodeResults it
// reports any shape mismatch and allocates only what n asks for.
func decodeBlock(payload []byte, n int) (runs int, fps []codegen.Fingerprint, err error) {
	if len(payload) != 16+n*fpLen || binary.LittleEndian.Uint64(payload[8:]) != uint64(n) {
		return 0, nil, fmt.Errorf("index block of %d bytes, want %d settings in %d", len(payload), n, 16+n*fpLen)
	}
	r := binary.LittleEndian.Uint64(payload)
	if r < 1 || r > math.MaxInt32 {
		return 0, nil, fmt.Errorf("index block run count %d", r)
	}
	fps = make([]codegen.Fingerprint, n)
	for i := range fps {
		copy(fps[i][:], payload[16+i*fpLen:])
	}
	return int(r), fps, nil
}

// encodeResults packs a result batch into the deterministic payload:
// u64 count, then per result the 18 counters and EnergyNJ as float64
// bits, all little-endian. Result.Config is not stored - it is an echo
// of the key's architecture slice, reconstructed on decode.
func encodeResults(results []cpu.Result) []byte {
	return appendResults(make([]byte, 0, 8+len(results)*(resultFields+1)*8), results)
}

// appendResults appends encodeResults' payload to out.
func appendResults(out []byte, results []cpu.Result) []byte {
	le := binary.LittleEndian.AppendUint64
	out = le(out, uint64(len(results)))
	for i := range results {
		r := &results[i]
		for _, v := range []uint64{
			r.Cycles, r.Insns,
			r.ICAccesses, r.ICMisses,
			r.DCAccesses, r.DCMisses,
			r.BTBLookups, r.Mispredicts,
			r.Decodes, r.RegReads, r.RegWrites,
			r.ALUOps, r.MACOps, r.ShiftOps,
			r.FetchStalls, r.MemStalls, r.DepStalls, r.BranchStalls,
		} {
			out = le(out, v)
		}
		out = le(out, math.Float64bits(r.EnergyNJ))
	}
	return out
}

// decodeResults unpacks a payload against the expected architecture
// slice. Any shape mismatch is reported as an error - the caller
// quarantines, because a payload that passed the store's checksum but
// not the codec means a key collision or codec bug, and recomputation
// wins either way.
func decodeResults(payload []byte, archs []uarch.Config) ([]cpu.Result, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("payload %d bytes, want >= 8", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	want := 8 + int(n)*(resultFields+1)*8
	if n != uint64(len(archs)) || len(payload) != want {
		return nil, fmt.Errorf("payload shape %d results/%d bytes, want %d/%d", n, len(payload), len(archs), want)
	}
	results := make([]cpu.Result, len(archs))
	off := 8
	u := func() uint64 {
		v := binary.LittleEndian.Uint64(payload[off:])
		off += 8
		return v
	}
	for i := range results {
		r := &results[i]
		r.Cycles, r.Insns = u(), u()
		r.ICAccesses, r.ICMisses = u(), u()
		r.DCAccesses, r.DCMisses = u(), u()
		r.BTBLookups, r.Mispredicts = u(), u()
		r.Decodes, r.RegReads, r.RegWrites = u(), u(), u()
		r.ALUOps, r.MACOps, r.ShiftOps = u(), u(), u()
		r.FetchStalls, r.MemStalls, r.DepStalls, r.BranchStalls = u(), u(), u(), u()
		r.EnergyNJ = math.Float64frombits(u())
		r.Config = archs[i]
	}
	return results, nil
}

// Get looks up the replay identified by (fp, runs, cfg, archs) and
// returns its results when a valid entry exists. Misses, corruption
// (quarantined by the store, typed internally) and I/O failures all
// return ok=false: the caller recomputes, and the distinction lives in
// Stats.
func (rs *ResultStore) Get(fp codegen.Fingerprint, runs int, cfg EvalConfig, archs []uarch.Config) ([]cpu.Result, bool) {
	k := resultKey(fp, runs, cfg, archs)
	payload, ok, _ := rs.s.Get(k)
	if !ok {
		return nil, false
	}
	results, err := decodeResults(payload, archs)
	if err != nil {
		rs.s.Quarantine(k, err)
		return nil, false
	}
	return results, true
}

// Put commits the replay's results. Failures degrade silently (the
// entry is simply not cached; Stats counts it) - a full disk must not
// abort a generation run.
func (rs *ResultStore) Put(fp codegen.Fingerprint, runs int, cfg EvalConfig, archs []uarch.Config, results []cpu.Result) {
	if len(results) != len(archs) {
		return
	}
	rs.s.Put(resultKey(fp, runs, cfg, archs), encodeResults(results))
}

// getBlock returns the run count and n fingerprints of the block under
// k, nil on a miss; a malformed payload is quarantined and a miss too.
func (rs *ResultStore) getBlock(k store.Key, n int) (int, []codegen.Fingerprint) {
	if payload, ok, _ := rs.s.Get(k); ok {
		runs, fps, err := decodeBlock(payload, n)
		if err == nil {
			rs.blockHits.Add(1)
			return runs, fps
		}
		rs.quarantineBlock(k, err)
	}
	rs.blockMisses.Add(1)
	return 0, nil
}

func (rs *ResultStore) quarantineBlock(k store.Key, reason error) {
	rs.blockCorrupt.Add(1)
	rs.s.Quarantine(k, reason)
}
