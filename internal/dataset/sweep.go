// The batched cell runner: cells of one exploration grid share a sweep
// state that resolves a program's optimisation settings in windows and
// deduplicates trace generation and replay across settings whose
// pipelines produced byte-identical binaries. A window is one block of
// the result store's compile index (indexBlock settings): it takes its
// identities (fingerprint per setting, run count) from the index and
// compiles, one core.Compile per setting, only when the index cannot
// answer or a replay has to run. The scheduler contract is untouched:
// cells are still dispatched, executed and streamed one by one, and every
// result is bit-identical to the naive per-cell path (ExploreRequest.Naive),
// which bypasses all of this state - index, window FIFO, twin replay
// memo and result store.
//
// Memory is bounded even when a runner serves only part of the grid (a
// worker daemon behind sched.Remote sees interleaved chunks and may
// never receive some cells): windows hold compiled binaries only and
// live in a small FIFO that rebuilds on demand, and replay results are
// memoised per binary so twin settings never touch a trace at all. No
// trace outlives its replay: a cell is the whole architecture sample, so
// the one replay that misses the memo and the store generates the trace
// into a pooled buffer, runs SimulateBatch over it and hands the buffer
// straight back - the sweep state never holds one.
package dataset

import (
	"fmt"
	"sync"

	"portcc/internal/codegen"
	"portcc/internal/cpu"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/store"
	"portcc/internal/trace"
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
	// seenFPs and counted drive the TraceReuses accounting: fingerprints
	// already owned by an earlier setting of this program, and window
	// starts whose reuse count has been recorded (a rebuilt window must
	// not recount).
	seenFPs map[codegen.Fingerprint]bool
	counted map[int]bool
}

// sweepWindow is one index block of settings, resolved by the first cell
// that needs any of them. It holds identities and, once compiled,
// binaries, never traces.
type sweepWindow struct {
	start, n int // settings [start, start+n) of the sweep

	once sync.Once
	err  error           // whole-window failure (module build, -O3 probe, stale index)
	runs int             // complete runs per trace of the program
	bt   []settingBinary // per setting, local index = opt - start; Prog unset
	key  store.Key       // the block's index key (unset without a store)

	// build guards the compile: eager when the index cannot answer,
	// else at the first replay that needs a trace.
	build    sync.Once
	built    []settingBinary
	buildErr error
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

// lookup asks the compile index for the window's block; when it answers,
// identities are set and nothing was built, not even the -O3 baseline.
func (w *sweepWindow) lookup(ev *Evaluator, st *ResultStore, name string, opts []opt.Config) error {
	sl, err := ev.module(name)
	if err != nil {
		return err
	}
	w.key = blockKey(name, sl.mhash, opts[w.start:w.start+w.n], ev.cfg)
	runs, fps := st.getBlock(w.key, w.n)
	if fps == nil {
		return nil
	}
	w.runs, w.bt = runs, make([]settingBinary, w.n)
	for i, fp := range fps {
		w.bt[i].FP = fp
	}
	return nil
}

// compile builds the window's binaries, once. They become the window's
// identities when the index had none, and otherwise hold the indexed
// block to them: one that disagrees (another compiler, same core.Version)
// is quarantined and fails the compile typed, because earlier cells may
// have been answered under the stale identity.
func (w *sweepWindow) compile(ev *Evaluator, st *ResultStore, name string, opts []opt.Config) ([]settingBinary, error) {
	w.build.Do(func() {
		var runs int
		if w.built, runs, w.buildErr = ev.compileSettings(name, opts[w.start:w.start+w.n]); w.buildErr != nil {
			return
		}
		if w.bt == nil {
			w.bt, w.runs = w.built, runs
			return
		}
		for i, got := range w.built {
			if w.runs != runs || got.Err != nil || got.FP != w.bt[i].FP {
				w.buildErr = fmt.Errorf("%w: %s setting %d: bump core.Version", pcerr.ErrIndexStale, name, w.start+i)
				st.quarantineBlock(w.key, w.buildErr)
				return
			}
		}
	})
	return w.built, w.buildErr
}

// commit writes the block the lookup missed, unless a setting of it
// failed to compile: a hit always means good binaries.
func (w *sweepWindow) commit(st *ResultStore) {
	fps := make([]codegen.Fingerprint, len(w.bt))
	for i := range w.bt {
		if w.bt[i].Err != nil {
			return
		}
		fps[i] = w.bt[i].FP
	}
	st.s.Put(w.key, encodeBlock(w.runs, fps))
}

// runCellBatched executes one grid cell through the sweep state:
// identical observable behaviour to runCell, with identities resolved
// per window, compilation deferred until a replay needs a binary, and
// trace generation and replay deduplicated across identical binaries.
func runCellBatched(ev *Evaluator, s *sweepState, c exploreCell) (ExploreResult, error) {
	req := s.req
	name := req.Programs[c.prog]
	ps := s.prog(c.prog)
	st := ev.resultStore()

	w := s.windowAt(ps, c.opt/indexBlock*indexBlock)
	compiled := false
	w.once.Do(func() {
		if st != nil {
			w.err = w.lookup(ev, st, name, req.Opts)
		}
		if w.err == nil && w.bt == nil {
			_, w.err = w.compile(ev, st, name, req.Opts)
			compiled = st != nil && w.err == nil
		}
		if w.err == nil {
			s.countReuses(ev, ps, w)
		}
	})
	// After the window is published: no slot waits behind these fsyncs.
	if compiled {
		w.commit(st)
	}

	li := c.opt - w.start
	err := w.err
	if err == nil {
		err = w.bt[li].Err
	}
	if err != nil {
		s.consume(ps)
		return ExploreResult{}, &pcerr.SimError{Program: name, Setting: c.opt, Err: err}
	}
	bt := &w.bt[li]

	// Twin settings (same fingerprint, any window) resolve their replay
	// from the memo below, or compute it once for all, without a trace.
	sc := s.sim(ps, bt.FP)
	sc.once.Do(func() {
		// A persistent store answers before any trace (or, in an indexed
		// window, any binary) exists: fingerprint plus workload parameters
		// address the previous run's replay of exactly this sample.
		if st != nil {
			if results, ok := st.Get(bt.FP, w.runs, ev.cfg, req.Archs); ok {
				sc.runs, sc.results = w.runs, results
				return
			}
		}
		built, err := w.compile(ev, st, name, req.Opts)
		if err != nil {
			sc.err = err
			return
		}
		tr, err := ev.GenerateTrace(name, built[li].Prog)
		if err != nil {
			sc.err = err
			return
		}
		sc.runs = max(tr.Runs, 1)
		sc.results = ev.SimulateBatch(tr, req.Archs)
		trace.Put(tr)
		if st != nil {
			st.Put(bt.FP, sc.runs, ev.cfg, req.Archs, sc.results)
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
func (s *sweepState) countReuses(ev *Evaluator, ps *progSweep, w *sweepWindow) {
	var reuses int64
	s.mu.Lock()
	for i := range w.bt {
		if ps.counted[w.start] || w.bt[i].Err != nil {
			continue
		}
		if ps.seenFPs[w.bt[i].FP] {
			reuses++
		}
		ps.seenFPs[w.bt[i].FP] = true
	}
	ps.counted[w.start] = true
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
