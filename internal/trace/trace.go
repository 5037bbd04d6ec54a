// Package trace turns a placed binary image into a dynamic instruction
// trace: the exact sequence of executed instructions with concrete fetch
// addresses, data addresses, branch outcomes and dependency distances.
//
// A trace is a pure function of the compiled program and a seed - it does
// not depend on the microarchitecture - so one trace is generated per
// (program, optimisation setting) and replayed against every
// microarchitecture configuration, exactly like trace-driven simulation.
//
// The generator walks pre-decoded micro-ops, not IR: the image
// (internal/codegen) decodes every block body once into codegen.Uop
// records - operands folded to scoreboard indices, the address pattern
// resolved to a kind, base, stride and working set, calls to their
// callee's entry - and assigns every address stream, loop-latch counter
// and probabilistic branch site a dense slot at build time. The per-event
// state therefore lives in flat pooled slices, a block body is emitted as
// one segment into an event buffer grown once for it, and steady-state
// generation performs no allocations and no map probes.
//
// Data addresses fall in the regions codegen carves (codegen.StreamBase).
package trace

import (
	"slices"
	"sync"

	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// Event flag bits.
const (
	// FlagTaken marks a control event that redirects fetch.
	FlagTaken uint8 = 1 << iota
	// FlagDepPrev marks an instruction depending on the immediately
	// preceding dynamic instruction (dual-issue pairing constraint).
	FlagDepPrev
	// FlagCond marks a conditional branch (BTB-predicted).
	FlagCond
)

// NoDist is the "no producer" marker for dependency distances.
const NoDist uint8 = 255

// Event is one dynamic instruction.
type Event struct {
	PC   uint32 // instruction address
	Addr uint32 // data address (memory ops) or control target
	Op   uint8  // isa.Op
	// DistLoad is the dynamic-instruction distance to the most recent
	// load producing one of this instruction's operands (NoDist: none).
	DistLoad uint8
	// DistFU / FULat describe the nearest multi-cycle functional-unit
	// producer (multiply/MAC) feeding this instruction.
	DistFU uint8
	FULat  uint8
	Flags  uint8
}

// Trace is the replayable dynamic instruction stream plus the
// microarchitecture-independent counts the performance counters need.
type Trace struct {
	Events []Event
	// OpCount counts dynamic instructions per operation class.
	OpCount [isa.NumOps]uint64
	// RegReads and RegWrites count register-file ports exercised.
	RegReads, RegWrites uint64
	// Branches counts conditional branches (BTB lookups).
	Branches uint64
	// MemOps counts loads+stores (data-cache accesses).
	MemOps uint64
	// Restarts counts how many times the whole program re-ran to fill
	// the trace to its cap.
	Restarts int
	// Runs counts complete program executions contained in the trace.
	Runs int
	// Truncated reports that the instruction cap ended the trace before
	// the requested run count completed.
	Truncated bool
	// Code is what the image knows about the instructions the events
	// were fetched from; the generator fills it, the replay engine reads
	// it to skip geometries the trace cannot overflow.
	Code Code
}

// Code bounds a trace's instruction stream statically: every event's PC
// lies in [Lo, Hi), and every FlagCond event's PC is one of CondSites.
// The zero value (Hi == 0) declares nothing.
type Code struct {
	Lo, Hi    uint32
	CondSites []uint32
}

// Insns returns the dynamic instruction count.
func (t *Trace) Insns() int { return len(t.Events) }

// Reshape resets the trace for a fresh generation run, keeping the event
// buffer's capacity so steady-state Get/Generate/Put cycles run without
// reallocating or zeroing the multi-megabyte event stream.
func (t *Trace) Reshape() {
	*t = Trace{Events: t.Events[:0]}
}

// pool recycles traces between generations; like the cache and bpred
// pools, entries keep their largest-seen event buffer.
var pool = sync.Pool{New: func() any { return new(Trace) }}

// Get returns a reset trace from the pool, ready for GenerateInto, with
// room for at least capHint events: generation then runs without append
// doublings, and a pooled buffer large enough is reused as-is (never
// zeroed - the generator only appends).
func Get(capHint int) *Trace {
	t := pool.Get().(*Trace)
	t.Reshape()
	if cap(t.Events) < capHint {
		t.Events = make([]Event, 0, capHint)
	}
	return t
}

// Put returns a trace to the pool. The caller must not use it afterwards;
// traces handed to other owners (e.g. cached in an evaluator) must not be
// put back.
func Put(t *Trace) { pool.Put(t) }

// Version is the generation-semantics version of this package: any
// change that alters the event stream or counters a given (binary,
// Config) pair generates - the walk, outcome hashing, address synthesis,
// dependency distances - must bump it. The result store keys on it like
// cpu.ReplayVersion, so replays of an older generator's traces are clean
// misses; TestVersionsPinBehaviour (internal/dataset) holds the constant
// to the streams the suite actually generates.
const Version = 1

// Config controls trace generation.
type Config struct {
	// Runs, when positive, ends the trace after that many complete
	// executions of the program: every compilation of the same program
	// then performs the identical source-level work, making cycle counts
	// directly comparable. Zero means "fill to MaxInsns".
	Runs int
	// MaxInsns caps the trace length as a safety bound (the statistical
	// workload scaling described in DESIGN.md). Zero selects the 100k
	// default (or 6x the expected run length when Runs is set).
	MaxInsns int
	// Seed drives branch outcomes and address generation. Outcomes are
	// derived per branch site (see ir.Term.Site), so they are identical
	// across different compilations of the same program.
	Seed int64
}

type retSite struct {
	fi   *codegen.FuncImage
	bpos int // layout position within fi.Blocks
	ipos int // next micro-op index within the block body
}

// sbEntry is one register's scoreboard state: the dynamic index of its
// last write, whether a load wrote it, and the writer's result latency.
type sbEntry struct {
	idx  int64
	load bool
	lat  uint8
}

// generator walks the binary image's pre-decoded micro-ops. Every address
// stream, latch trip counter and probabilistic branch site has a dense
// image-assigned slot (Program.NumStreams/NumLatchSlots/NumSiteSlots with
// Uop.Slot and the per-block slot indices), so the per-event state is
// flat slice indexing into pooled scratch arrays, and the trace under
// construction is held by value: no per-event indirection through the
// destination.
type generator struct {
	prog     *codegen.Program
	seed     uint64
	max      int
	wantRuns int

	// out is the trace being built; its event count is the dynamic
	// instruction index.
	out Trace

	streamCursor []uint32 // per stream slot: next sequential offset
	streamCount  []uint64 // per stream slot: accesses (random-address hash)
	trips        []int32  // per latch slot: trip counter
	sites        []uint64 // per site slot: execution counter

	sb        [codegen.ScoreboardSize]sbEntry
	callStack []retSite
}

// Generate executes the program image and returns its trace.
func Generate(p *codegen.Program, cfg Config) *Trace {
	return GenerateInto(&Trace{}, p, cfg)
}

// GenerateSized is Generate into a fresh event buffer with room for
// capHint events, for traces the caller keeps (caches): unlike Get it
// never takes a pooled buffer out of circulation or pins one far larger
// than the trace, and unlike Generate it skips the append doublings when
// the hint covers the trace (a short hint only costs the growth back).
func GenerateSized(p *codegen.Program, cfg Config, capHint int) *Trace {
	return GenerateInto(&Trace{Events: make([]Event, 0, capHint)}, p, cfg)
}

// genPool recycles generator scratch (stream cursors, trip counters, site
// counters) between runs, so batched generation stays allocation-flat.
var genPool = sync.Pool{New: func() any { return new(generator) }}

// sized returns buf resized to n zeroed elements, reusing its capacity.
func sized[T comparable](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// GenerateInto executes the program image into dst (typically from Get,
// reusing its event buffer) and returns it. The produced trace is
// bit-identical to Generate's for the same program and config.
func GenerateInto(dst *Trace, p *codegen.Program, cfg Config) *Trace {
	if cfg.MaxInsns <= 0 {
		cfg.MaxInsns = 100_000
	}
	g := genPool.Get().(*generator)
	g.prog = p
	g.seed = splitmix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15)
	g.max = cfg.MaxInsns
	g.wantRuns = cfg.Runs
	g.out = Trace{Events: dst.Events[:0]}
	g.callStack = g.callStack[:0]
	g.streamCursor = sized(g.streamCursor, p.NumStreams)
	g.streamCount = sized(g.streamCount, p.NumStreams)
	g.trips = sized(g.trips, p.NumLatchSlots)
	g.sites = sized(g.sites, p.NumSiteSlots)
	for i := range g.sb {
		g.sb[i] = sbEntry{idx: -1 << 60}
	}
	g.run()
	if g.wantRuns > 0 && g.out.Runs < g.wantRuns {
		g.out.Truncated = true
		g.out.Runs++ // count the partial run so rates stay finite
	}
	g.out.MemOps = g.out.OpCount[isa.OpLoad] + g.out.OpCount[isa.OpStore]
	g.out.Code = Code{Lo: codegen.CodeBase, Hi: codegen.CodeBase + uint32(p.TotalBytes), CondSites: p.CondSites}
	*dst = g.out
	g.prog, g.out = nil, Trace{}
	genPool.Put(g)
	return dst
}

// splitmix is the splitmix64 mixing function used to derive per-site,
// per-execution branch outcomes and per-access random addresses.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashFloat maps a hash to [0,1).
func hashFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// run walks the image until the event budget is spent or, with Runs set,
// the requested executions have completed - the run count only moves at
// an entry return, so only there is it checked. Block bodies go in
// segments bounded by the body's end and the budget left, each ended
// early by a call.
func (g *generator) run() {
	fi := g.prog.Entry()
	bpos, ipos := 0, 0
	fellThrough := false

	for len(g.out.Events) < g.max {
		bi := fi.Blocks[bpos]

		// Alignment padding is executed as no-ops when entered by
		// fall-through (a real cost of the alignment passes).
		if ipos == 0 && fellThrough && bi.Pad > 0 {
			n := min(bi.Pad/isa.InsnBytes, g.max-len(g.out.Events))
			pc := bi.Addr - uint32(bi.Pad)
			for k := 0; k < n; k++ {
				g.out.Events = append(g.out.Events, Event{PC: pc + uint32(k*isa.InsnBytes),
					Op: uint8(isa.OpNop), DistLoad: NoDist, DistFU: NoDist})
			}
			g.out.OpCount[isa.OpNop] += uint64(n)
		}
		fellThrough = false

		// Body micro-ops (possibly resuming mid-block after a call).
		if ipos < len(bi.Uops) && len(g.out.Events) < g.max {
			end := min(len(bi.Uops), ipos+g.max-len(g.out.Events))
			k := g.body(bi.Uops[ipos:end], bi.Addr+uint32(ipos*isa.InsnBytes))
			u := &bi.Uops[ipos+k-1]
			ipos += k
			if u.Addr == codegen.AddrCallee {
				if !u.TailCall {
					g.callStack = append(g.callStack, retSite{fi, bpos, ipos})
				}
				fi, bpos, ipos = g.prog.FuncOf(int(u.Callee)), 0, 0
				continue
			}
		}
		if len(g.out.Events) >= g.max {
			break
		}

		// Terminator.
		switch bi.Term.Kind {
		case ir.TermRet:
			g.emit(Event{PC: bi.JumpAddr, Op: uint8(isa.OpRet),
				Flags: FlagTaken, DistLoad: NoDist, DistFU: NoDist})
			if len(g.callStack) == 0 {
				// Entry function returned: one complete program run.
				g.out.Restarts++
				g.out.Runs++
				if g.wantRuns > 0 && g.out.Runs >= g.wantRuns {
					return
				}
				fi, bpos, ipos = g.prog.Entry(), 0, 0
				continue
			}
			rs := g.callStack[len(g.callStack)-1]
			g.callStack = g.callStack[:len(g.callStack)-1]
			fi, bpos, ipos = rs.fi, rs.bpos, rs.ipos
			continue

		case ir.TermFall, ir.TermJump:
			target := bi.Term.Fall
			if bi.Term.Kind == ir.TermJump {
				target = bi.Term.Taken
			}
			npos := posOf(fi, target)
			if bi.HasJump {
				g.emit(Event{PC: bi.JumpAddr, Addr: fi.Blocks[npos].Addr,
					Op: uint8(isa.OpJump), Flags: FlagTaken,
					DistLoad: NoDist, DistFU: NoDist})
			} else {
				fellThrough = true
			}
			bpos, ipos = npos, 0

		case ir.TermBranch:
			taken := g.decide(bi)
			target := bi.Term.Fall
			if taken {
				target = bi.Term.Taken
			}
			npos := posOf(fi, target)
			// Does fetch redirect at the branch instruction itself?
			var redirects bool
			if bi.HasJump {
				redirects = taken // branch targets Taken; Fall is via the jump
			} else {
				redirects = taken != bi.Inverted
			}
			flags := FlagCond
			if redirects {
				flags |= FlagTaken
			}
			dyn := len(g.out.Events)
			g.emit(Event{PC: bi.BranchAddr, Addr: fi.Blocks[npos].Addr,
				Op: uint8(isa.OpBranch), Flags: flags,
				DistLoad: NoDist, DistFU: NoDist})
			if bi.CondUse != 0 {
				// In place: a copy out of a stack event would reload the
				// bytes use just stored one at a time.
				g.use(&g.out.Events[dyn], bi.CondUse, int64(dyn))
				g.out.RegReads++
			}
			g.out.Branches++
			if bi.HasJump && !taken {
				g.emit(Event{PC: bi.JumpAddr, Addr: fi.Blocks[npos].Addr,
					Op: uint8(isa.OpJump), Flags: FlagTaken,
					DistLoad: NoDist, DistFU: NoDist})
			} else if !redirects {
				fellThrough = true
			}
			bpos, ipos = npos, 0
		}
	}
}

// body emits the events of seg - consecutive micro-ops of one block body,
// the first at pc, already bounded by the event budget - into the event
// buffer grown once to hold them all. It stops after a call and returns
// how many micro-ops it consumed.
func (g *generator) body(seg []codegen.Uop, pc uint32) int {
	events := slices.Grow(g.out.Events, len(seg))
	n := len(events)
	out := events[n : n+len(seg)]
	var reads, writes uint64
	for i := range seg {
		u := &seg[i]
		dyn := int64(n + i)
		// Filled in place: building it on the stack and copying it out
		// would reload bytes use stored one at a time, a load no store
		// forwards.
		ev := &out[i]
		*ev = Event{PC: pc + uint32(i*isa.InsnBytes), Op: uint8(u.Op), DistLoad: NoDist, DistFU: NoDist}
		if u.Use[0] != 0 {
			g.use(ev, u.Use[0], dyn)
			reads++
		}
		if u.Use[1] != 0 {
			g.use(ev, u.Use[1], dyn)
			reads++
		}
		switch u.Addr {
		case codegen.AddrFixed:
			ev.Addr = u.Base
		case codegen.AddrStream:
			cur := g.streamCursor[u.Slot]
			ev.Addr = u.Base + cur
			cur += u.Stride
			if cur >= u.WSet {
				cur = 0
			}
			g.streamCursor[u.Slot] = cur
		case codegen.AddrHashed:
			c := g.streamCount[u.Slot] + 1
			g.streamCount[u.Slot] = c
			h := splitmix(g.seed ^ uint64(u.Stream)<<32 ^ c)
			ev.Addr = u.Base + (uint32(h)%u.WSet)&^3
		case codegen.AddrCallee:
			ev.Addr = u.Base
			ev.Flags |= FlagTaken
			g.out.OpCount[isa.OpCall]++
			g.out.Events = events[:n+i+1]
			g.out.RegReads += reads
			g.out.RegWrites += writes
			return i + 1
		}
		if u.PtrLoad {
			// Pointer chasing: the address depends on the previous load.
			ev.DistLoad = 1
		}
		if u.Def != 0 {
			g.sb[u.Def] = sbEntry{idx: dyn, load: u.Op == isa.OpLoad, lat: u.Lat}
			writes++
		}
		g.out.OpCount[u.Op]++
	}
	g.out.Events = events[:n+len(seg)]
	g.out.RegReads += reads
	g.out.RegWrites += writes
	return len(seg)
}

// use folds the scoreboard entry of operand r into the dependency
// distances of ev, the event at dynamic index dyn.
func (g *generator) use(ev *Event, r uint8, dyn int64) {
	s := &g.sb[r]
	d := dyn - s.idx
	if d <= 0 || d > 254 {
		return
	}
	if d == 1 {
		ev.Flags |= FlagDepPrev
	}
	if s.load {
		if uint8(d) < ev.DistLoad {
			ev.DistLoad = uint8(d)
		}
	} else if s.lat > 1 {
		if uint8(d) < ev.DistFU {
			ev.DistFU = uint8(d)
			ev.FULat = s.lat
		}
	}
}

// emit appends a control event and counts its operation class.
func (g *generator) emit(ev Event) {
	g.out.Events = append(g.out.Events, ev)
	g.out.OpCount[ev.Op]++
}

// posOf finds the layout position of block id within the function image.
func posOf(fi *codegen.FuncImage, id int) int {
	if id >= 0 && id < len(fi.ByID) {
		if bi := fi.ByID[id]; bi != nil {
			return bi.Pos
		}
	}
	// Verified IR guarantees valid targets; reaching here is a bug.
	panic("trace: branch target not in function layout")
}

// decide evaluates the branch outcome at IR level (true = Taken edge).
// For counted latches (Trip > 0) the Taken edge is, by convention, the
// repeat edge: the pattern is Trip-1 repeats then one exit.
//
// Probabilistic outcomes are derived by hashing (seed, branch site,
// execution index), and loop-invariant branches hash the *run* index, so
// they are constant for a whole program execution: every compilation of
// the program sees the same outcome sequence per source branch, and
// unswitching a truly invariant branch preserves semantics exactly.
func (g *generator) decide(bi *codegen.BlockImage) bool {
	t := bi.Term
	if t.Trip > 0 {
		c := g.trips[bi.LatchSlot] + 1
		if c >= t.Trip {
			g.trips[bi.LatchSlot] = 0
			return false
		}
		g.trips[bi.LatchSlot] = c
		return true
	}
	if t.Prob <= 0 {
		return false
	}
	if t.Prob >= 1 {
		return true
	}
	if t.InvariantIn > 0 {
		h := splitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ uint64(g.out.Runs))
		return hashFloat(h) < t.Prob
	}
	n := g.sites[bi.SiteSlot]
	g.sites[bi.SiteSlot] = n + 1
	h := splitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ n)
	return hashFloat(h) < t.Prob
}
