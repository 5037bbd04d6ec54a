// The batched cell runner: cells of one exploration grid share a sweep
// state that resolves a program's optimisation settings in windows and
// deduplicates trace generation and replay across settings whose
// pipelines produced byte-identical binaries. A window is one block of
// the result store's compile index (indexBlock settings), each setting
// with its own claim-once compile slot. When the index answers, the
// window takes its identities (fingerprint per setting, run count) from
// it and a setting compiles only when its own replay has to run; when it
// cannot, every worker slot whose cell reaches the window compiles
// unclaimed settings until none is left - the cores share the compile,
// nobody waits for a window - and goes on as soon as its own setting is
// in. The scheduler contract is untouched: cells are still dispatched,
// executed and streamed one by one, and every result is bit-identical to
// the naive per-cell path (ExploreRequest.Naive), which bypasses all of
// this state - index, window FIFO, twin replay memo and result store.
//
// Memory is bounded even when a runner serves only part of the grid (a
// worker daemon behind sched.Remote sees interleaved chunks and may
// never receive some cells): windows hold compiled binaries only and
// live in a small FIFO that rebuilds on demand, and replay results are
// memoised per binary so twin settings never touch a trace at all. No
// trace outlives its replay: a cell is the whole architecture sample, so
// the one replay that misses the memo and the store generates the trace
// into its worker slot's trace buffer and runs SimulateBatch over it, and
// the slot's next such replay overwrites it - the sweep state never holds
// one. The buffer lives on the slot's evaluator, unguarded (a slot runs
// one cell at a time), and keeps its size across cells, so a warm slot
// generates without allocating; a pooled buffer would be emptied by the
// collector between cells and regrown.
//
// That replay carries the program's data-stream memo (cpu.DataMemo),
// scoped like the twin memo beside it: different binaries that issue the
// same loads and stores share one data-cache sweep. It is born with the
// program's sweep state, handed to the engine by that replay alone and
// dropped with the state at the program's last cell; Naive never sees it.
package dataset

import (
	"fmt"
	"sync"
	"sync/atomic"

	"portcc/internal/codegen"
	"portcc/internal/cpu"
	"portcc/internal/pcerr"
	"portcc/internal/store"
)

// maxBuiltWindows bounds the compiled windows retained across the whole
// sweep state (FIFO): a runner that executes cells in dispatch order
// never revisits an evicted window, and one that does (a shard serving
// interleaved or requeued chunks) just rebuilds it - identical output,
// bounded memory.
const maxBuiltWindows = 8

// sweepState is shared by every worker slot of one Runner.
type sweepState struct {
	req *ExploreRequest

	mu    sync.Mutex
	progs map[int]*progSweep
	// built is the FIFO of window keys currently retained.
	built []windowKey
}

type windowKey struct {
	prog, start int
}

// progSweep holds one program's in-flight windows and its cross-window
// replay memo, one entry per distinct binary. It is dropped once every
// cell of the program has been consumed (local runs; a partial-grid
// runner keeps the small memos until the run ends).
type progSweep struct {
	prog      int
	cellsLeft int
	windows   map[int]*sweepWindow
	sims      map[codegen.Fingerprint]*simCell
	data      cpu.DataMemo // data-cache outcomes per distinct data stream
	// seenFPs and counted drive the TraceReuses accounting: fingerprints
	// already owned by an earlier setting of this program, and window
	// starts whose reuse count has been recorded (a rebuilt window must
	// not recount).
	seenFPs map[codegen.Fingerprint]bool
	counted map[int]bool
}

// sweepWindow is one index block of settings, looked up by the first cell
// that needs any of them. It holds identities and, once compiled,
// binaries, never traces.
type sweepWindow struct {
	start, n int // settings [start, start+n) of the sweep

	once sync.Once
	err  error                 // whole-window failure (module build, -O3 probe)
	runs int                   // complete runs per trace of the program
	fps  []codegen.Fingerprint // identities from the index, nil when it had none
	key  store.Key             // the block's index key (unset without a store)

	bins []windowBinary // per setting, local index = opt - start
	// next hands the settings of a window the index could not name to the
	// slots that reach it, each to one; landed counts those compiled.
	next, landed atomic.Int32
}

// windowBinary is one setting's claim-once compile slot: the binary is
// written inside once and read after it.
type windowBinary struct {
	once sync.Once
	settingBinary
}

// simCell memoises one binary's replay over the architecture sample:
// twin settings reuse the results without touching a trace.
type simCell struct {
	once    sync.Once
	runs    int
	results []cpu.Result
	err     error
}

func newSweepState(req *ExploreRequest) *sweepState {
	return &sweepState{req: req, progs: make(map[int]*progSweep)}
}

// prog returns (creating on first use) the per-program state.
func (s *sweepState) prog(p int) *progSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.progs[p]
	if !ok {
		ps = &progSweep{
			prog:      p,
			cellsLeft: len(s.req.Opts),
			windows:   make(map[int]*sweepWindow),
			sims:      make(map[codegen.Fingerprint]*simCell),
			seenFPs:   make(map[codegen.Fingerprint]bool),
			counted:   make(map[int]bool),
		}
		s.progs[p] = ps
	}
	return ps
}

// windowAt returns a program's window record, creating (and FIFO-
// registering) it on first use and evicting the oldest built window
// beyond the retention bound. Evicted windows are simply forgotten:
// cells still holding the pointer finish against it, and a later cell
// rebuilds an identical window from the deterministic compile.
func (s *sweepState) windowAt(ps *progSweep, start int) *sweepWindow {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := ps.windows[start]
	if !ok {
		w = &sweepWindow{start: start, n: min(indexBlock, len(s.req.Opts)-start)}
		w.bins = make([]windowBinary, w.n)
		ps.windows[start] = w
		s.built = append(s.built, windowKey{ps.prog, start})
		for len(s.built) > maxBuiltWindows {
			old := s.built[0]
			s.built = s.built[1:]
			if ops, ok := s.progs[old.prog]; ok {
				delete(ops.windows, old.start)
			}
		}
	}
	return w
}

// sim returns (creating on first use) a binary's replay memo slot.
func (s *sweepState) sim(ps *progSweep, fp codegen.Fingerprint) *simCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := ps.sims[fp]
	if !ok {
		sc = &simCell{}
		ps.sims[fp] = sc
	}
	return sc
}

// resolve is the window's first touch: ask the compile index for the
// block - when it answers, identities are set and nothing was built, not
// even the -O3 baseline - and otherwise build the baseline the compiles
// below start from.
func (w *sweepWindow) resolve(ev *Evaluator, s *sweepState, ps *progSweep, st *ResultStore, name string) {
	var sl *baseline
	if st != nil {
		if sl, w.err = ev.module(name); w.err != nil {
			return
		}
		w.key = blockKey(name, sl.mhash, s.req.Opts[w.start:w.start+w.n], ev.cfg)
		if w.runs, w.fps = st.getBlock(w.key, w.n); w.fps != nil {
			s.countReuses(ev, ps, w.start, w.fps)
			return
		}
	}
	if sl, w.err = ev.baseline(name); w.err == nil {
		w.runs = sl.runs
	}
}

// compile returns setting li's binary, compiled on this slot unless
// another has claimed it, and then waited for. Under indexed identities
// the binary is held to them: one that disagrees (another compiler, same
// core.Version) quarantines the block and fails the setting typed,
// because earlier cells may have been answered under the stale identity.
// Without them, whoever lands the window's last setting publishes the
// identities and commits the block - unless a setting failed to compile:
// a hit always means good binaries - after releasing the setting, so no
// slot waits behind the fsync.
func (w *sweepWindow) compile(ev *Evaluator, s *sweepState, ps *progSweep, st *ResultStore, name string, li int) *settingBinary {
	b, last := &w.bins[li], false
	b.once.Do(func() {
		sl, err := ev.baseline(name)
		if err != nil {
			b.Err = err
			return
		}
		b.settingBinary = ev.compileSetting(sl, &s.req.Opts[w.start+li])
		if w.fps == nil {
			last = w.landed.Add(1) == int32(w.n)
		} else if b.Err != nil || sl.runs != w.runs || b.FP != w.fps[li] {
			b.Err = fmt.Errorf("%w: %s setting %d: bump core.Version", pcerr.ErrIndexStale, name, w.start+li)
			st.quarantineBlock(w.key, b.Err)
		}
	})
	if last {
		fps := make([]codegen.Fingerprint, 0, w.n)
		for i := range w.bins {
			if w.bins[i].Err == nil {
				fps = append(fps, w.bins[i].FP)
			}
		}
		s.countReuses(ev, ps, w.start, fps)
		if st != nil && len(fps) == w.n {
			st.s.Put(w.key, encodeBlock(w.runs, fps))
		}
	}
	return &b.settingBinary
}

// runCellBatched executes one grid cell through the sweep state:
// identical observable behaviour to runCell, with identities resolved
// per window, compilation shared between the slots or deferred until a
// replay needs the binary, and trace generation and replay deduplicated
// across identical binaries.
func runCellBatched(ev *Evaluator, s *sweepState, c exploreCell) (ExploreResult, error) {
	req := s.req
	name := req.Programs[c.prog]
	ps := s.prog(c.prog)
	st := ev.resultStore()

	w := s.windowAt(ps, c.opt/indexBlock*indexBlock)
	w.once.Do(func() { w.resolve(ev, s, ps, st, name) })

	li := c.opt - w.start
	var fp codegen.Fingerprint
	err := w.err
	switch {
	case err != nil:
	case w.fps != nil:
		fp = w.fps[li]
	default:
		// Help while a setting is unclaimed, then wait for this cell's only.
		for i := w.next.Add(1) - 1; int(i) < w.n; i = w.next.Add(1) - 1 {
			w.compile(ev, s, ps, st, name, int(i))
		}
		b := w.compile(ev, s, ps, st, name, li)
		fp, err = b.FP, b.Err
	}
	if err != nil {
		s.consume(ps)
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Err: err}
	}

	// Twin settings (same fingerprint, any window) resolve their replay
	// from the memo below, or compute it once for all, without a trace.
	sc := s.sim(ps, fp)
	sc.once.Do(func() {
		// A persistent store answers before any trace (or, in an indexed
		// window, any binary) exists: fingerprint plus workload parameters
		// address the previous run's replay of exactly this sample.
		if st != nil {
			if results, ok := st.Get(fp, w.runs, ev.cfg, req.Archs); ok {
				sc.runs, sc.results = w.runs, results
				return
			}
		}
		// An indexed window compiles here, this setting only.
		b := w.compile(ev, s, ps, st, name, li)
		if b.Err != nil {
			sc.err = b.Err
			return
		}
		sl, err := ev.baseline(name)
		if err != nil {
			sc.err = err
			return
		}
		tr := ev.slotTrace(sl, b.Prog)
		sc.runs = max(tr.Runs, 1)
		sc.results = ev.simulateBatch(tr, req.Archs, &ps.data)
		if st != nil {
			st.Put(fp, sc.runs, ev.cfg, req.Archs, sc.results)
		}
	})
	s.consume(ps)
	if sc.err != nil {
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Err: sc.err}
	}

	return ExploreResult{
		ProgIndex: c.prog,
		OptIndex:  c.opt,
		Program:   name,
		Config:    req.Opts[c.opt],
		Runs:      sc.runs,
		Results:   sc.results,
	}, nil
}

// countReuses records a freshly resolved window's fingerprints against
// the program's registry and adds to the evaluator's TraceReuses how
// many of its settings share an earlier setting's byte-identical binary
// (within the window or across windows). A rebuilt window contributes
// nothing: its start is already marked counted.
func (s *sweepState) countReuses(ev *Evaluator, ps *progSweep, start int, fps []codegen.Fingerprint) {
	var reuses int64
	s.mu.Lock()
	if !ps.counted[start] {
		for _, fp := range fps {
			if ps.seenFPs[fp] {
				reuses++
			}
			ps.seenFPs[fp] = true
		}
		ps.counted[start] = true
	}
	s.mu.Unlock()
	ev.mu.Lock()
	ev.traceReuses += reuses
	ev.mu.Unlock()
}

// consume retires one cell; when a program's whole grid has been
// consumed (always, on local runs) its state - windows, memos - is
// released.
func (s *sweepState) consume(ps *progSweep) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps.cellsLeft--
	if ps.cellsLeft == 0 {
		delete(s.progs, ps.prog)
		keep := s.built[:0]
		for _, k := range s.built {
			if k.prog != ps.prog {
				keep = append(keep, k)
			}
		}
		s.built = keep
	}
}
