// Package trace turns a placed binary image into a dynamic instruction
// trace: the exact sequence of executed instructions with concrete fetch
// addresses, data addresses, branch outcomes and dependency distances.
//
// A trace is a pure function of the compiled program and a seed - it does
// not depend on the microarchitecture - so one trace is generated per
// (program, optimisation setting) and replayed against every
// microarchitecture configuration, exactly like trace-driven simulation.
//
// Generation is cursor-free: the image (internal/codegen) assigns every
// address stream, loop-latch counter and probabilistic branch site a
// dense slot at build time, so the generator's per-event state lives in
// flat pooled slices and steady-state generation performs no allocations
// and no map probes.
package trace

import (
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

// Stream address-space carving: ordinary data streams get 1 MiB regions
// from DataBase; per-function frame streams (spill slots, register saves)
// get 4 KiB regions from FrameBase.
const (
	// DataBase is the base address of ordinary data streams.
	DataBase uint32 = 0x1000_0000
	// DataSpacing is the region size per ordinary stream.
	DataSpacing uint32 = 0x10_0000
	// FrameStream is the stream-ID base for per-function frame streams.
	FrameStream int32 = 1 << 20
	// FrameBase is the base address of frame streams.
	FrameBase uint32 = 0xF000_0000
	// FrameSpacing is the region size per frame stream.
	FrameSpacing uint32 = 0x1000
)

// StreamBase returns the base address of a stream's region.
func StreamBase(id int32) uint32 {
	if id >= FrameStream {
		return FrameBase + uint32(id-FrameStream)*FrameSpacing
	}
	return DataBase + uint32(id)*DataSpacing
}

type retSite struct {
	fi   *codegen.FuncImage
	bpos int // layout position within fi.Blocks
	ipos int // next instruction index within the block body
}

// generator walks the binary image. All its per-program cursor state is
// cursor-free in the map sense: codegen assigns every address stream,
// latch trip counter and probabilistic branch site a dense slot at
// image-build time (Program.NumStreams/NumLatchSlots/NumSiteSlots with
// the per-block/per-insn slot indices), so the per-event lookups below
// are flat slice indexing into pooled scratch arrays.
type generator struct {
	prog     *codegen.Program
	seed     uint64
	tr       *Trace
	max      int
	wantRuns int

	streamCursor []uint32 // per stream slot: next sequential offset
	streamCount  []uint64 // per stream slot: accesses (random-address hash)
	trips        []int32  // per latch slot: trip counter
	sites        []uint64 // per site slot: execution counter

	// Register scoreboard indexed by physical register number.
	lastIdx  [isa.NumRegs + 1]int64
	lastLoad [isa.NumRegs + 1]bool
	lastLat  [isa.NumRegs + 1]uint8

	dyn       int64 // dynamic instruction index
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
	dst.Reshape()
	g := genPool.Get().(*generator)
	g.prog = p
	g.seed = splitmix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15)
	g.tr = dst
	g.max = cfg.MaxInsns
	g.wantRuns = cfg.Runs
	g.dyn = 0
	g.callStack = g.callStack[:0]
	g.streamCursor = sized(g.streamCursor, p.NumStreams)
	g.streamCount = sized(g.streamCount, p.NumStreams)
	g.trips = sized(g.trips, p.NumLatchSlots)
	g.sites = sized(g.sites, p.NumSiteSlots)
	for i := range g.lastIdx {
		g.lastIdx[i] = -1 << 60
		g.lastLoad[i] = false
		g.lastLat[i] = 0
	}
	g.run()
	if g.wantRuns > 0 && g.tr.Runs < g.wantRuns {
		g.tr.Truncated = true
		g.tr.Runs++ // count the partial run so rates stay finite
	}
	g.prog, g.tr = nil, nil
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

func (g *generator) full() bool {
	if len(g.tr.Events) >= g.max {
		return true
	}
	return g.wantRuns > 0 && g.tr.Runs >= g.wantRuns
}

func (g *generator) run() {
	fi := g.prog.Entry()
	bpos, ipos := 0, 0
	fellThrough := false

	for !g.full() {
		bi := fi.Blocks[bpos]

		// Alignment padding is executed as no-ops when entered by
		// fall-through (a real cost of the alignment passes).
		if ipos == 0 && fellThrough && bi.Pad > 0 {
			padBase := bi.Addr - uint32(bi.Pad)
			for k := 0; k < bi.Pad/isa.InsnBytes && !g.full(); k++ {
				g.emit(Event{PC: padBase + uint32(k*isa.InsnBytes),
					Op: uint8(isa.OpNop), DistLoad: NoDist, DistFU: NoDist})
			}
		}
		fellThrough = false

		// Body instructions (possibly resuming mid-block after a call).
		calledInto := false
		for ipos < len(bi.Insns) && !g.full() {
			in := &bi.Insns[ipos]
			slot := bi.StreamSlot[ipos]
			pc := bi.Addr + uint32(ipos*isa.InsnBytes)
			ipos++
			if in.Op == isa.OpCall {
				callee := g.prog.FuncOf(int(in.Callee))
				ev := Event{PC: pc, Addr: callee.Addr, Op: uint8(isa.OpCall),
					Flags: FlagTaken, DistLoad: NoDist, DistFU: NoDist}
				g.depends(&ev, in)
				g.emit(ev)
				if !in.HasFlag(ir.FlagTailCall) {
					g.callStack = append(g.callStack, retSite{fi, bpos, ipos})
				}
				fi, bpos, ipos = callee, 0, 0
				calledInto = true
				break
			}
			g.step(pc, in, slot)
		}
		if calledInto || g.full() {
			continue
		}

		// Terminator.
		switch bi.Term.Kind {
		case ir.TermRet:
			g.emit(Event{PC: bi.JumpAddr, Op: uint8(isa.OpRet),
				Flags: FlagTaken, DistLoad: NoDist, DistFU: NoDist})
			if len(g.callStack) == 0 {
				// Entry function returned: one complete program run.
				g.tr.Restarts++
				g.tr.Runs++
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
			ev := Event{PC: bi.BranchAddr, Addr: fi.Blocks[npos].Addr,
				Op: uint8(isa.OpBranch), Flags: flags,
				DistLoad: NoDist, DistFU: NoDist}
			if bi.Term.CondReg != ir.RegNone {
				g.useDep(&ev, bi.Term.CondReg)
				g.tr.RegReads++
			}
			g.emit(ev)
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
		h := splitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ uint64(g.tr.Runs))
		return hashFloat(h) < t.Prob
	}
	n := g.sites[bi.SiteSlot]
	g.sites[bi.SiteSlot] = n + 1
	h := splitmix(g.seed ^ uint64(uint32(t.Site))<<20 ^ n)
	return hashFloat(h) < t.Prob
}

// step emits the event for a non-control instruction; slot is the
// instruction's dense stream index from the image (-1 when it keeps no
// stream cursor).
func (g *generator) step(pc uint32, in *ir.Insn, slot int32) {
	ev := Event{PC: pc, Op: uint8(in.Op), DistLoad: NoDist, DistFU: NoDist}
	g.depends(&ev, in)
	if in.Op.IsMem() {
		ev.Addr = g.address(in, slot)
		if in.Mem.Kind == ir.MemPointer && in.Op == isa.OpLoad {
			// Pointer chasing: the address depends on the previous load.
			ev.DistLoad = 1
		}
	}
	g.emit(ev)
	if in.Def != ir.RegNone {
		g.writeDep(in)
		g.tr.RegWrites++
	}
}

// depends fills dependency distances from the register scoreboard.
func (g *generator) depends(ev *Event, in *ir.Insn) {
	for _, u := range in.Use {
		if u == ir.RegNone {
			continue
		}
		g.useDep(ev, u)
		g.tr.RegReads++
	}
}

func foldReg(r ir.Reg) int {
	i := int(r)
	if i > isa.NumRegs {
		// Traces of pre-allocation IR (used by unit tests) fold virtual
		// registers onto the physical scoreboard.
		i = 1 + (i % isa.NumRegs)
	}
	return i
}

func (g *generator) useDep(ev *Event, u ir.Reg) {
	r := foldReg(u)
	d := g.dyn - g.lastIdx[r]
	if d <= 0 || d > 254 {
		return
	}
	if d == 1 {
		ev.Flags |= FlagDepPrev
	}
	if g.lastLoad[r] {
		if uint8(d) < ev.DistLoad {
			ev.DistLoad = uint8(d)
		}
	} else if g.lastLat[r] > 1 {
		if uint8(d) < ev.DistFU {
			ev.DistFU = uint8(d)
			ev.FULat = g.lastLat[r]
		}
	}
}

func (g *generator) writeDep(in *ir.Insn) {
	r := foldReg(in.Def)
	g.lastIdx[r] = g.dyn - 1 // emit already advanced dyn
	g.lastLoad[r] = in.Op == isa.OpLoad
	g.lastLat[r] = uint8(in.Op.Latency())
}

// address synthesises the data address for a memory instruction; slot is
// the image-assigned dense stream index (-1 exactly for the deterministic
// frame-slot accesses, which keep no cursor).
func (g *generator) address(in *ir.Insn, slot int32) uint32 {
	m := in.Mem
	base := StreamBase(m.Stream)
	if slot < 0 {
		// Frame slots are deterministic: slot index in Imm.
		return base + uint32(in.Imm)*4
	}
	w := uint32(m.WSet)
	switch m.Kind {
	case ir.MemSeq, ir.MemStrided:
		cur := g.streamCursor[slot]
		a := base + cur
		cur += uint32(m.Stride)
		if cur >= w {
			cur = 0
		}
		g.streamCursor[slot] = cur
		return a
	case ir.MemScalar:
		return base
	default: // MemRandom, MemPointer, MemTable, MemStack
		n := g.streamCount[slot] + 1
		g.streamCount[slot] = n
		h := splitmix(g.seed ^ uint64(uint32(m.Stream))<<32 ^ n)
		return base + (uint32(h)%w)&^3
	}
}

// emit appends the event and updates the trace-level counters.
func (g *generator) emit(ev Event) {
	g.tr.Events = append(g.tr.Events, ev)
	g.dyn++
	op := isa.Op(ev.Op)
	g.tr.OpCount[op]++
	if op.IsMem() {
		g.tr.MemOps++
	}
	if ev.Flags&FlagCond != 0 {
		g.tr.Branches++
	}
}
