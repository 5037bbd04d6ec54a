// Tests of the compile index: the ledgers that prove a resumed run
// compiles nothing under any partition of the grid, and the faults,
// tampering and evictions that may cost it a compile but never a byte.
package dataset

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"portcc/internal/codegen"
	"portcc/internal/cpu"
	"portcc/internal/faultfs"
	"portcc/internal/faultnet"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/sched"
	"portcc/internal/store"
	"portcc/internal/uarch"
	"portcc/internal/wire"
)

// ledger is the work one run performed, summed over its worker slots.
type ledger struct {
	Stats
	probeCompiles int64
}

// add folds in one runner's slot evaluators, which share one base.
func (l *ledger) add(evs []*Evaluator) {
	var base *sharedBase
	for _, ev := range evs {
		if ev == nil {
			continue
		}
		s := ev.Stats()
		l.Compiles += s.Compiles
		l.Simulations += s.Simulations
		l.TraceGens += s.TraceGens
		l.PassRuns += s.PassRuns
		l.TraceReuses += s.TraceReuses
		base = ev.base
	}
	if base != nil {
		l.probeCompiles += base.compiles.Load()
	}
}

// idle reports whether the run touched neither compiler, trace
// generator nor simulator - what a run over a complete store must do.
func (l ledger) idle() bool {
	return l.Compiles == 0 && l.TraceGens == 0 && l.Simulations == 0 && l.probeCompiles == 0
}

// ledgerRun drives every cell of req through a fresh runner of the
// given slot count, the slots pulling cells concurrently in dispatch
// order as sched.Local would, and returns the cells and the ledger.
func ledgerRun(t *testing.T, req ExploreRequest, slots int, st *ResultStore) (map[[2]int]ExploreResult, ledger) {
	t.Helper()
	return ledgerRunCells(t, req, slots, st, allCells(req))
}

// ledgerRunCells is ledgerRun over the listed dispatch indices only: the
// part of a grid a shard is dealt.
func ledgerRunCells(t *testing.T, req ExploreRequest, slots int, st *ResultStore, cells []int) (map[[2]int]ExploreResult, ledger) {
	t.Helper()
	run, evs := req.runner(slots, 1, st)
	out, errs := driveCells(run, slots, cells)
	for i, err := range errs {
		t.Errorf("cell %d: %v", i, err)
	}
	if t.Failed() {
		t.FailNow()
	}
	var l ledger
	l.add(evs)
	return out, l
}

// driveCells runs the listed dispatch indices through run, the slots
// pulling them concurrently in order as sched.Local would - except that a
// failed cell does not stop the dispatch: it returns the cells that
// completed and the errors of those that failed, by dispatch index.
func driveCells(run func(slot, index int) (any, error), slots int, cells []int) (map[[2]int]ExploreResult, map[int]error) {
	out, errs := map[[2]int]ExploreResult{}, map[int]error{}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(cells); n = int(next.Add(1)) - 1 {
				res, err := run(slot, cells[n])
				mu.Lock()
				if err != nil {
					errs[cells[n]] = err
				} else {
					r := res.(ExploreResult)
					out[[2]int{r.ProgIndex, r.OptIndex}] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// hookedRunner is req.runner with every slot's evaluator built up front,
// over one base as the runner would, and hook installed as its compile
// hook: the seam through which a test watches, gates or fails compiles.
func hookedRunner(req *ExploreRequest, slots int, st *ResultStore, hook func(slot int, c *opt.Config) error) (func(slot, index int) (any, error), []*Evaluator) {
	run, evs := req.runner(slots, 1, st)
	base := newSharedBase()
	for slot := range evs {
		ev := newEvaluatorWith(req.Eval, base)
		ev.SetSweepWorkers(1)
		if st != nil {
			ev.SetStore(st)
		}
		ev.compileHook = func(c *opt.Config) error { return hook(slot, c) }
		evs[slot] = ev
	}
	return run, evs
}

// blocksOf is the number of compile-index blocks req's sweeps span.
func blocksOf(req ExploreRequest) int64 {
	return int64(len(req.Programs) * ((len(req.Opts) + indexBlock - 1) / indexBlock))
}

// TestResumeCompilesNothing is the tentpole's headline: after a cold
// run over a fresh store, a second runner over the same directory
// answers every identity and every replay from disk - no module is
// compiled, no -O3 probe runs, no trace is generated - and yields the
// same cells.
func TestResumeCompilesNothing(t *testing.T) {
	req := tinyRequest(t, 21)
	ref := collect(t, req, ExploreOptions{Workers: 2})
	dir := t.TempDir()

	cold := openStore(t, dir)
	got, cl := ledgerRun(t, req, 2, cold)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("cold store-backed cells differ from storeless cells")
	}
	if want := len(req.Programs) * (len(req.Opts) + 1); cl.Compiles != want {
		t.Errorf("cold run compiled %d settings, want %d (every setting and one probe per program, once)", cl.Compiles, want)
	}
	cs := cold.Stats()
	if cs.Hits != 0 || int(cs.Misses) != cs.Entries || int(cs.Puts) != cs.Entries {
		t.Errorf("cold ledger %+v: want every entry missed once and committed once", cs)
	}
	if h, m, q := cold.IndexStats(); h != 0 || m != blocksOf(req) || q != 0 {
		t.Errorf("cold index ledger %d hits, %d misses, %d quarantined; want 0, %d, 0", h, m, q, blocksOf(req))
	}
	cold.Close()

	warm := openStore(t, dir)
	got, wl := ledgerRun(t, req, 2, warm)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed cells differ from storeless cells")
	}
	if !wl.idle() {
		t.Errorf("resumed run did work: %+v", wl)
	}
	if ws := warm.Stats(); ws.Misses != 0 || int(ws.Hits) != cs.Entries || ws.Puts != 0 {
		t.Errorf("resumed ledger %+v: want %d hits and nothing else", ws, cs.Entries)
	}
	if h, m, _ := warm.IndexStats(); h != blocksOf(req) || m != 0 {
		t.Errorf("resumed index ledger %d hits, %d misses; want %d, 0", h, m, blocksOf(req))
	}
	// Twins are a fact about identities, not about who compiled them.
	if wl.TraceReuses != cl.TraceReuses {
		t.Errorf("TraceReuses %d resumed, %d cold", wl.TraceReuses, cl.TraceReuses)
	}
}

// TestColdLedgerIgnoresTheStore: on a cold run the batched path's
// savings read the same with and without a store - the index changes
// who remembers the compile, not how it is done.
func TestColdLedgerIgnoresTheStore(t *testing.T) {
	req := tinyRequest(t, 21)
	_, plain := ledgerRun(t, req, 1, nil)
	_, stored := ledgerRun(t, req, 1, openStore(t, t.TempDir()))
	if plain.TraceReuses != stored.TraceReuses || plain.PassRuns != stored.PassRuns || plain.Compiles != stored.Compiles {
		t.Errorf("cold ledgers differ:\nno store %+v\nstore    %+v", plain, stored)
	}
}

// ledgerShard is startShard with the runner's evaluators kept, so a
// fleet run's compile ledger is readable in-process.
func ledgerShard(t *testing.T, st *ResultStore) (addr string, fold func(*ledger)) {
	t.Helper()
	var mu sync.Mutex
	var runs [][]*Evaluator
	addr, _ = startShard(t, sched.ServeConfig{
		Format: FormatVersion, Workers: 1, Heartbeat: 100 * time.Millisecond,
		NewRun: func(spec any) (func(slot, index int) (any, error), error) {
			req, err := decodeRequest(spec.(wire.Raw))
			if err != nil {
				return nil, err
			}
			run, evs := req.runner(1, 1, st)
			mu.Lock()
			runs = append(runs, evs)
			mu.Unlock()
			return run, nil
		},
	})
	return addr, func(l *ledger) {
		mu.Lock()
		defer mu.Unlock()
		for _, evs := range runs {
			l.add(evs)
		}
	}
}

// fleetRun explores req on two one-worker shards whose only store tier
// is the service at addr, returning the cells and the shards' summed
// ledger.
func fleetRun(t *testing.T, req ExploreRequest, addr string) (map[[2]int]ExploreResult, ledger, store.Stats) {
	t.Helper()
	var addrs []string
	var folds []func(*ledger)
	var stores []*ResultStore
	for i := 0; i < 2; i++ {
		rs := openRemoteStore(t, "", addr)
		a, fold := ledgerShard(t, rs)
		addrs, folds, stores = append(addrs, a), append(folds, fold), append(stores, rs)
	}
	got := collect(t, req, ExploreOptions{Shards: addrs})
	var l ledger
	var ss store.Stats
	for i, fold := range folds {
		fold(&l)
		s := stores[i].Stats()
		ss.Misses += s.Misses
		ss.RemoteErrors += s.RemoteErrors
	}
	return got, l, ss
}

// TestIndexPartitionIndependence: the index a run leaves behind serves
// every other partition of the same grid. Cold with two slots, then one
// slot, three slots and a two-shard fleet dealt interleaved 8-cell
// chunks, all through one store service with no local tier: zero misses
// and zero compiles each time, because a window is a block under every
// partition - which also makes a cold run's store and index ledgers the
// same at every slot count.
func TestIndexPartitionIndependence(t *testing.T) {
	req := tinyRequest(t, 21)
	ref := collect(t, req, ExploreOptions{Workers: 2})
	type ledgers struct {
		store   store.Stats
		h, m, q int64
	}
	var oneSlot ledgers
	for slots := 1; slots <= 3; slots++ {
		rs := openStore(t, t.TempDir())
		ledgerRun(t, req, slots, rs)
		l := ledgers{store: rs.Stats()}
		l.h, l.m, l.q = rs.IndexStats()
		if slots == 1 {
			oneSlot = l
		} else if l != oneSlot {
			t.Errorf("cold ledgers at %d slots %+v, at 1 slot %+v", slots, l, oneSlot)
		}
	}
	ss := startStoreService(t, nil)

	if got, _ := ledgerRun(t, req, 2, openRemoteStore(t, "", ss.addr)); !reflect.DeepEqual(got, ref) {
		t.Fatal("cold cells differ from storeless cells")
	}
	filled := ss.sv.Stats()
	for _, slots := range []int{1, 3} {
		rs := openRemoteStore(t, "", ss.addr)
		got, l := ledgerRun(t, req, slots, rs)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d-slot resumed cells differ", slots)
		}
		if s := rs.Stats(); !l.idle() || s.Misses != 0 || s.RemoteErrors != 0 {
			t.Errorf("%d slots over a 2-slot run's store: ledger %+v, store %+v; want no work and no misses", slots, l, s)
		}
	}
	got, l, s := fleetRun(t, req, ss.addr)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("fleet cells differ")
	}
	if !l.idle() || s.Misses != 0 || s.RemoteErrors != 0 {
		t.Errorf("fleet over a 2-slot run's store: ledger %+v, store %+v; want no work and no misses", l, s)
	}
	if after := ss.sv.Stats(); after.Misses != filled.Misses || after.Puts != filled.Puts {
		t.Errorf("service ledger moved beyond hits: %+v -> %+v", filled, after)
	}
}

// TestFleetFirstRunCompletesIndex: a first run by the fleet - each
// shard seeing only its interleaved chunks - still leaves a complete
// index, because a shard commits every block of every window it built:
// a second fleet run adds no service misses and no puts, and compiles
// nothing.
func TestFleetFirstRunCompletesIndex(t *testing.T) {
	req := tinyRequest(t, 21)
	ref := collect(t, req, ExploreOptions{Workers: 2})
	ss := startStoreService(t, nil)

	if got, _, _ := fleetRun(t, req, ss.addr); !reflect.DeepEqual(got, ref) {
		t.Fatal("first fleet run's cells differ")
	}
	first := ss.sv.Stats()
	got, l, s := fleetRun(t, req, ss.addr)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("second fleet run's cells differ")
	}
	if !l.idle() || s.Misses != 0 {
		t.Errorf("second fleet run: ledger %+v, store %+v; want no work and no misses", l, s)
	}
	if second := ss.sv.Stats(); second.Misses != first.Misses || second.Puts != first.Puts {
		t.Errorf("service ledger moved beyond hits: %+v -> %+v", first, second)
	}
}

// TestNewArchsOverIndexedSweep: new architectures over an indexed sweep
// hit every identity and miss every result, so each replay that has to
// run compiles its own setting - once, twins nothing - and the fresh
// replays are committed.
func TestNewArchsOverIndexedSweep(t *testing.T) {
	req := tinyRequest(t, 21)
	dir := t.TempDir()
	ledgerRun(t, req, 1, openStore(t, dir)) // not closed: Puts are durable when they return

	wide := req
	wide.Archs = (uarch.Space{}).SampleN(rand.New(rand.NewSource(99)), 3)
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := collect(t, wide, ExploreOptions{Workers: 1})
	rs := openStore(t, dir)
	got, l := ledgerRun(t, wide, 2, rs)
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("cells over new architectures differ from storeless cells")
	}
	if h, m, _ := rs.IndexStats(); h != blocksOf(req) || m != 0 {
		t.Errorf("index ledger %d hits, %d misses; want %d, 0", h, m, blocksOf(req))
	}
	s := rs.Stats()
	if s.Puts == 0 || s.Puts != s.Misses {
		t.Errorf("store ledger %+v: want every missed replay committed", s)
	}
	if want := s.Misses + l.probeCompiles; int64(l.Compiles) != want || l.Compiles > len(req.Programs)*(len(req.Opts)+1) {
		t.Errorf("compiled %d settings, want %d (one per replay that ran and one probe per program, no setting twice)", l.Compiles, want)
	}
	if _, again := ledgerRun(t, wide, 2, rs); !again.idle() {
		t.Errorf("third run did work: %+v", again)
	}
}

// TestRebuiltWindowDoesNotRecompile: a window evicted from the FIFO and
// rebuilt resolves from the index again and compiles only the setting a
// replay needs a binary of. An earlier runner stored every cell but the
// first of each window; this one runs those first cells (each compiles
// its own setting, lazily, when its replay has to run), then everything
// else - by which time the FIFO of eight has evicted and rebuilt all ten
// windows, without a second compile. Windows are 8 settings - five per
// program, ten in all - whatever the runner's slot count.
func TestRebuiltWindowDoesNotRecompile(t *testing.T) {
	req := tinyRequest(t, 40)
	var firsts, rest []int
	for i := range req.Cells() {
		if req.cell(i).opt%indexBlock == 0 {
			firsts = append(firsts, i)
		} else {
			rest = append(rest, i)
		}
	}
	for _, slots := range []int{1, 2, 8} {
		// One slot of a slots-wide runner executes every cell, in order.
		drive := func(st *ResultStore, order []int) *Evaluator {
			run, evs := req.runner(slots, 1, st)
			for _, i := range order {
				if _, err := run(0, i); err != nil {
					t.Fatal(err)
				}
			}
			return evs[0]
		}
		dir := t.TempDir()
		drive(openStore(t, dir), rest)

		rs := openStore(t, dir)
		ev := drive(rs, append(firsts, rest...))
		// Twins of stored settings answer some first cells without a binary;
		// every other first cell is one store miss, one replay and one
		// compile, of its own setting. Nothing else may compile.
		misses := rs.Stats().Misses
		if got := int64(ev.Stats().Compiles) - ev.base.compiles.Load(); misses == 0 || got != misses {
			t.Errorf("%d slots: %d settings compiled for %d replays that had to run, want as many", slots, got, misses)
		}
		if h, m, _ := rs.IndexStats(); m != 0 || h <= blocksOf(req) {
			t.Errorf("%d slots: index ledger %d hits, %d misses; want more than %d hits (windows were rebuilt) and no miss", slots, h, m, blocksOf(req))
		}
	}
}

// blockPayloadLen is the payload size of a full index block, which no
// result payload of the store tests' two-architecture grid shares.
const blockPayloadLen = 16 + indexBlock*fpLen

// blockFaultFS fails the commit of compile-index blocks at one chosen
// step, recognising a block's temp file by the length of its payload
// write: "write" tears the payload, "sync" fails the fsync, "rename"
// crashes the filesystem at the first block's commit point.
type blockFaultFS struct {
	faultfs.FS
	step string

	mu      sync.Mutex
	blocks  map[string]bool
	crashed bool
}

type blockFaultFile struct {
	faultfs.File
	fs   *blockFaultFS
	name string
}

func (f *blockFaultFS) dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *blockFaultFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	if f.dead() {
		return nil, faultfs.ErrCrashed
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockFaultFile{File: file, fs: f, name: name}, nil
}

func (f *blockFaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	if f.blocks[oldname] && f.step == "rename" {
		f.crashed = true
	}
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return faultfs.ErrCrashed
	}
	return f.FS.Rename(oldname, newname)
}

func (b *blockFaultFile) Write(p []byte) (int, error) {
	if b.fs.dead() {
		return 0, faultfs.ErrCrashed
	}
	if len(p) == blockPayloadLen {
		b.fs.mu.Lock()
		b.fs.blocks[b.name] = true
		b.fs.mu.Unlock()
		if b.fs.step == "write" {
			n, _ := b.File.Write(p[:len(p)/2])
			return n, syscall.EIO
		}
	}
	return b.File.Write(p)
}

func (b *blockFaultFile) Sync() error {
	b.fs.mu.Lock()
	fail := b.fs.blocks[b.name] && b.fs.step == "sync"
	b.fs.mu.Unlock()
	if fail || b.fs.dead() {
		return syscall.EIO
	}
	return b.File.Sync()
}

// TestIndexBlockCommitFaults aims the disk faults at the index: a torn
// block write, a failed block fsync and a crash at a block's rename
// each leave that block uncommitted and nothing half-written visible.
// The faulted run and the rerun over whatever it left are both
// byte-identical; the rerun finds no corruption, recompiles exactly the
// windows whose blocks were lost, and completes the index.
func TestIndexBlockCommitFaults(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	for _, step := range []string{"write", "sync", "rename"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			rs, err := OpenResultStoreFS(dir, 0, "", &blockFaultFS{FS: faultfs.OS(), step: step, blocks: map[string]bool{}})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if got := generateBytes(t, ExploreOptions{Workers: 2, Store: rs}); !bytes.Equal(got, ref) {
				t.Fatal("dataset under a block commit fault differs")
			}
			if s := rs.Stats(); s.PutErrors == 0 {
				t.Fatalf("no block commit failed: %+v", s)
			}

			clean := openStore(t, dir)
			if got := generateBytes(t, ExploreOptions{Workers: 2, Store: clean}); !bytes.Equal(got, ref) {
				t.Fatal("rerun after a block commit fault differs")
			}
			if _, m, q := clean.IndexStats(); m == 0 || q != 0 || clean.Stats().Corrupt != 0 {
				t.Fatalf("rerun: %d index misses, %d quarantined, store %+v; want the lost blocks missed and nothing corrupt", m, q, clean.Stats())
			}
			clean.Close()

			done := openStore(t, dir)
			if got := generateBytes(t, ExploreOptions{Workers: 2, Store: done}); !bytes.Equal(got, ref) {
				t.Fatal("third run differs")
			}
			if s := done.Stats(); s.Misses != 0 {
				t.Fatalf("index still incomplete after a clean run: %+v", s)
			}
		})
	}
}

// storeRequest is storeConfig's grid as a request, for tests that need
// its block keys.
func storeRequest(t *testing.T) ExploreRequest {
	t.Helper()
	req, err := storeConfig().Request()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// firstBlock returns the key, settings count and current payload of
// program 0's first index block in the store at dir.
func firstBlock(t *testing.T, dir string, req ExploreRequest) (*store.Store, store.Key, []byte) {
	t.Helper()
	raw, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	sl, err := NewEvaluator(req.Eval).module(req.Programs[0])
	if err != nil {
		t.Fatal(err)
	}
	k := blockKey(req.Programs[0], sl.mhash, req.Opts[:min(indexBlock, len(req.Opts))], req.Eval.withDefaults())
	payload, ok, err := raw.Get(k)
	if !ok || err != nil {
		t.Fatalf("first index block not in the store: ok=%v err=%v", ok, err)
	}
	return raw, k, append([]byte(nil), payload...)
}

// replant replaces k's entry (Put alone is a no-op on an existing key).
func replant(t *testing.T, raw *store.Store, k store.Key, payload []byte) {
	t.Helper()
	raw.Quarantine(k, errors.New("test: replanting"))
	if err := raw.Put(k, payload); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedBlockIsQuarantined: a block that passes the store's
// checksum but not the codec is quarantined and counted like a corrupt
// result entry; the window compiles and the dataset is unchanged.
func TestTruncatedBlockIsQuarantined(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	dir := t.TempDir()
	generateBytes(t, ExploreOptions{Workers: 2, Store: openStore(t, dir)})
	raw, k, payload := firstBlock(t, dir, storeRequest(t))
	replant(t, raw, k, payload[:len(payload)-fpLen/2])

	rs := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: rs}); !bytes.Equal(got, ref) {
		t.Fatal("dataset over a truncated index block differs")
	}
	if h, m, q := rs.IndexStats(); q != 1 || m != 1 || h == 0 {
		t.Errorf("index ledger %d hits, %d misses, %d quarantined; want the one bad block missed and quarantined", h, m, q)
	}
	if s := rs.Stats(); s.Corrupt != 1 {
		t.Errorf("store ledger %+v: want 1 corrupt", s)
	}
}

// TestStaleBlockTripsTypedError plants a well-formed block with one
// wrong fingerprint - what a compiler change without a core.Version
// bump leaves behind. The wrong identity misses its results, the window
// compiles, the tripwire fires: a typed error naming the constant and a
// quarantined block, never a dataset. The rerun is clean.
func TestStaleBlockTripsTypedError(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	dir := t.TempDir()
	generateBytes(t, ExploreOptions{Workers: 2, Store: openStore(t, dir)})
	raw, k, payload := firstBlock(t, dir, storeRequest(t))
	payload[16+3*fpLen] ^= 0x40 // setting 3's fingerprint
	replant(t, raw, k, payload)

	rs := openStore(t, dir)
	_, err := GenerateWith(context.Background(), storeConfig(), ExploreOptions{Workers: 2, Store: rs})
	var se *pcerr.SimError
	if !errors.Is(err, pcerr.ErrIndexStale) || !errors.As(err, &se) || !strings.Contains(err.Error(), "core.Version") {
		t.Fatalf("generation over a stale block returned %v; want a SimError wrapping ErrIndexStale that names core.Version", err)
	}
	if _, _, q := rs.IndexStats(); q != 1 {
		t.Errorf("%d blocks quarantined, want 1", q)
	}
	if _, ok, _ := raw.Get(k); ok {
		t.Error("the stale block is still served")
	}
	rs.Close()

	again := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: again}); !bytes.Equal(got, ref) {
		t.Fatal("rerun after the tripwire differs")
	}
	if _, m, q := again.IndexStats(); m != 1 || q != 0 {
		t.Errorf("rerun index ledger: %d misses, %d quarantined; want 1, 0", m, q)
	}
}

// evictKind opens the store at dir under a budget that holds exactly
// the entries for which keep is true, after making those the most
// recently used: the store's own eviction then removes every other
// entry, oldest first. It returns how many were evicted.
func evictKind(t *testing.T, dir string, keep func(payload []byte) bool) int64 {
	t.Helper()
	// Budgeted far above the store's size, so its hits set the entry
	// mtimes the bounded reopen reads as recency, and evict nothing.
	raw, err := store.Open(store.Options{Dir: dir, Budget: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.ent"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no entries in %s (err %v)", dir, err)
	}
	var kept []store.Key
	var keptBytes int64
	for _, name := range names {
		var k store.Key
		if _, err := hex.Decode(k[:], []byte(strings.TrimSuffix(filepath.Base(name), ".ent"))); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := raw.Get(k)
		if !ok || err != nil {
			t.Fatalf("entry %s unreadable: ok=%v err=%v", name, ok, err)
		}
		if keep(payload) {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			kept, keptBytes = append(kept, k), keptBytes+fi.Size()
		}
	}
	for _, k := range kept {
		raw.Get(k) // touch: most recently used
	}
	raw.Close()

	bounded, err := store.Open(store.Options{Dir: dir, Budget: keptBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()
	bounded.Get(kept[0]) // any touch enforces the budget
	s := bounded.Stats()
	if s.Entries != len(kept) {
		t.Fatalf("budget %d left %d entries, want the %d kept", keptBytes, s.Entries, len(kept))
	}
	return s.Evictions
}

// TestIndexAndResultsEvictIndependently: a budget that evicts only the
// index blocks costs a recompile of every window and no replay; one
// that evicts only the results costs every replay and, for each, a lazy
// compile of its own setting (twins compile nothing), with every
// identity still a hit. The datasets are identical both
// ways, and both runs leave the store complete again.
func TestIndexAndResultsEvictIndependently(t *testing.T) {
	req := tinyRequest(t, 21)
	ref := collect(t, req, ExploreOptions{Workers: 2})
	settings := len(req.Programs) * (len(req.Opts) + 1)
	isBlock := func(p []byte) bool { return len(p) <= blockPayloadLen } // a result payload of 3 archs is larger

	for _, tc := range []struct {
		name       string
		keep       func([]byte) bool
		sims       bool
		indexMiss  int64
		resultMiss bool
	}{
		{"blocks-evicted", func(p []byte) bool { return !isBlock(p) }, false, blocksOf(req), false},
		{"results-evicted", isBlock, true, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ledgerRun(t, req, 2, openStore(t, dir))
			if n := evictKind(t, dir, tc.keep); n == 0 {
				t.Fatal("nothing evicted")
			}
			rs := openStore(t, dir)
			got, l := ledgerRun(t, req, 2, rs)
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("cells after eviction differ")
			}
			s := rs.Stats()
			want := settings
			if tc.resultMiss {
				want = int(s.Misses + l.probeCompiles) // the replays that ran, and their programs' probes
			}
			if l.Compiles != want || l.Compiles > settings || (l.Simulations != 0) != tc.sims {
				t.Errorf("ledger %+v: want %d compiles, simulations %v", l, want, tc.sims)
			}
			if _, m, _ := rs.IndexStats(); m != tc.indexMiss {
				t.Errorf("%d index misses, want %d", m, tc.indexMiss)
			}
			if (s.Misses-tc.indexMiss != 0) != tc.resultMiss || s.Puts != s.Misses {
				t.Errorf("store ledger %+v: result misses expected %v, every miss recommitted", s, tc.resultMiss)
			}
			if _, again := ledgerRun(t, req, 2, rs); !again.idle() {
				t.Errorf("run after the refill did work: %+v", again)
			}
		})
	}
}

// TestServiceDyingMidLookupCompiles: the store service's first
// connection dies inside the run's first lookups - which are index
// blocks - over a service that holds the whole grid. The lost lookups
// are absorbed as misses, the affected windows compile, and the
// dataset is byte-identical.
func TestServiceDyingMidLookupCompiles(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	var armed atomic.Bool
	ss := startStoreService(t, func(int) faultnet.Fault {
		if armed.CompareAndSwap(true, false) {
			return faultnet.Fault{CloseAfterReads: 3}
		}
		return faultnet.Fault{}
	})
	generateBytes(t, ExploreOptions{Workers: 2, Store: openRemoteStore(t, "", ss.addr)}) // fills the service

	armed.Store(true)
	rs := openRemoteStore(t, "", ss.addr)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: rs}); !bytes.Equal(got, ref) {
		t.Fatal("dataset with the service dying mid-lookup differs")
	}
	s := rs.Stats()
	if _, m, _ := rs.IndexStats(); s.RemoteErrors == 0 || m == 0 {
		t.Fatalf("the dying connection cost nothing: %d index misses, store %+v", m, s)
	}
}

// FuzzStorePayloads feeds arbitrary bytes to both payload decoders:
// neither may panic, neither allocates beyond what the caller's shape
// asks for (the length fields are checked against len(payload) first),
// and whatever is accepted re-encodes to the same bytes.
func FuzzStorePayloads(f *testing.F) {
	results := encodeResults([]cpu.Result{{Cycles: 7, Insns: 5, EnergyNJ: 1.5}, {Cycles: 9}})
	block := encodeBlock(3, []codegen.Fingerprint{{1}, {2}, {3}})
	inflated := append([]byte(nil), block...)
	inflated[8] = 0xff
	f.Add(results, uint8(2))
	f.Add(block, uint8(3))
	f.Add(block[:len(block)-5], uint8(3))
	f.Add(results[:len(results)-1], uint8(2))
	f.Add(inflated, uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, n uint8) {
		shape := int(n % 17)
		if rs, err := decodeResults(payload, make([]uarch.Config, shape)); err == nil {
			if len(rs) != shape || !bytes.Equal(encodeResults(rs), payload) {
				t.Fatalf("decodeResults accepted %d bytes as %d results that re-encode differently", len(payload), len(rs))
			}
		}
		if runs, fps, err := decodeBlock(payload, shape); err == nil {
			if len(fps) != shape || runs < 1 || !bytes.Equal(encodeBlock(runs, fps), payload) {
				t.Fatalf("decodeBlock accepted %d bytes as %d settings that re-encode differently", len(payload), len(fps))
			}
		}
	})
}
