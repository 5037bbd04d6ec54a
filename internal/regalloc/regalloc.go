// Package regalloc implements linear-scan register allocation onto the
// XScale register file: 12 allocatable registers split into caller-saved
// (r1-r4), callee-saved (r5-r10) and two reserved spill scratch registers
// (r11, r12).
//
// The allocator is where several of the paper's optimisation interactions
// become physical: instruction scheduling lengthens live ranges and causes
// spills (extra loads/stores and code growth); inlining merges register
// pressure of caller and callee; caller-saves (gcc's -fcaller-saves)
// trades save/restore pairs around calls against spilling.
//
// Its tables are indexed by virtual register and sized once from
// Func.NextReg. Allocation rewrites instructions and condition registers
// only, never a block or a branch target, so the function's cached CFG
// analysis stays valid (see ir.Func.Analyze).
package regalloc

import (
	"math/bits"
	"sort"

	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// Register pools.
var (
	callerRegs = []ir.Reg{1, 2, 3, 4}
	calleeRegs = []ir.Reg{5, 6, 7, 8, 9, 10}
)

// Scratch registers reserved for spill reloads.
const (
	scratchA ir.Reg = 11
	scratchB ir.Reg = 12
)

// Options controls allocation behaviour.
type Options struct {
	// CallerSaves enables gcc's -fcaller-saves: call-crossing values may
	// live in caller-saved registers with save/restore pairs around each
	// call, when cheaper than spilling.
	CallerSaves bool
}

// frameWSet is the addressable frame window per function (the image
// carves FrameSpacing bytes per frame stream).
const frameWSet = int32(codegen.FrameSpacing)

type interval struct {
	vreg       ir.Reg
	start, end int
	refs       int // def+use occurrences (spill cost estimate)
}

type allocator struct {
	f       *ir.Func
	opts    Options
	frame   ir.MemRef
	layout  []int
	base    []int // linear position of each block's first instruction
	liveIn  []bitset
	liveOut []bitset
	nregs   int
	calls   []int // linear positions of call instructions
	// Per virtual register: its physical register (RegNone if none), its
	// spill slot, and the save slot of a caller-saved assignment (noSlot
	// if none).
	assigned []ir.Reg
	spilled  []int32
	saves    []int32
	slots    int32
}

const noSlot = -1

// Allocate rewrites the function onto physical registers, inserting spill,
// save/restore and prologue/epilogue code. funcID selects the frame
// address stream.
func Allocate(f *ir.Func, funcID int, opts Options) {
	if f.NextReg <= 1 {
		attachFrameOnly(f, funcID)
		return
	}
	n := int(f.NextReg)
	slots := make([]int32, 2*n)
	for i := range slots {
		slots[i] = noSlot
	}
	a := &allocator{
		f:    f,
		opts: opts,
		frame: ir.MemRef{
			Stream: codegen.FrameStream + int32(funcID),
			Kind:   ir.MemStack,
			WSet:   frameWSet,
		},
		assigned: make([]ir.Reg, n),
		spilled:  slots[:n],
		saves:    slots[n:],
		nregs:    n,
	}
	a.linearize()
	a.liveness()
	ivs := a.intervals()
	a.scan(ivs)
	a.rewrite()
	a.prologue()
	f.FrameSize = a.slots * 4
}

func attachFrameOnly(f *ir.Func, funcID int) {
	f.FrameSize = 0
}

// linearize orders blocks (layout order when present) and assigns linear
// positions; each instruction occupies one position, plus one terminator
// position per block.
func (a *allocator) linearize() {
	f := a.f
	a.layout = f.Layout
	if a.layout == nil {
		a.layout = make([]int, len(f.Blocks))
		for i := range a.layout {
			a.layout[i] = i
		}
	}
	a.base = make([]int, len(f.Blocks))
	pos := 0
	for _, id := range a.layout {
		a.base[id] = pos
		pos += len(f.Blocks[id].Insns) + 1
		for i, in := range f.Blocks[id].Insns {
			if in.Op == isa.OpCall {
				a.calls = append(a.calls, a.base[id]+i)
			}
		}
	}
	sort.Ints(a.calls)
}

type bitset []uint64

func (s bitset) set(i int)         { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) has(i ir.Reg) bool { return s[int(i)/64]&(1<<(uint(i)%64)) != 0 }
func (s bitset) or(o bitset) bool {
	ch := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			ch = true
		}
	}
	return ch
}
func (s bitset) andNot(o bitset) {
	for i := range s {
		s[i] &^= o[i]
	}
}
func (s bitset) copyFrom(o bitset) { copy(s, o) }

// liveness computes per-block live-in/out sets over virtual registers.
// Every set, and the fixpoint's scratch, is carved from one slab.
func (a *allocator) liveness() {
	f := a.f
	n := len(f.Blocks)
	words := (a.nregs + 63) / 64
	slab := make([]uint64, (4*n+1)*words)
	sets := make([]bitset, 4*n)
	for i := range sets {
		sets[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	use, def := sets[:n], sets[n:2*n]
	a.liveIn, a.liveOut = sets[2*n:3*n], sets[3*n:]
	in := bitset(slab[4*n*words:])
	for _, b := range f.Blocks {
		u, d := use[b.ID], def[b.ID]
		for i := range b.Insns {
			in := &b.Insns[i]
			for _, r := range in.Use {
				if r != ir.RegNone && !d.has(r) {
					u.set(int(r))
				}
			}
			if in.Def != ir.RegNone {
				d.set(int(in.Def))
			}
		}
		if c := b.Term.CondReg; c != ir.RegNone && !d.has(c) {
			u.set(int(c))
		}
	}
	var succBuf []int
	for changed := true; changed; {
		changed = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := f.Blocks[bi]
			out := a.liveOut[b.ID]
			succBuf = b.Succs(succBuf[:0])
			for _, s := range succBuf {
				if out.or(a.liveIn[s]) {
					changed = true
				}
			}
			in.copyFrom(out)
			in.andNot(def[b.ID])
			in.or(use[b.ID])
			if a.liveIn[b.ID].or(in) {
				changed = true
			}
		}
	}
}

// intervals builds one [min,max] linear interval per virtual register,
// carved from one backing array, sorted by start, then register.
// Positions are touched in increasing order, so a register's first
// touch is its start: the intervals arrive sorted but for ties.
func (a *allocator) intervals() []*interval {
	f := a.f
	ivs := make([]interval, a.nregs) // refs == 0: the register never occurs
	out := make([]*interval, 0, a.nregs)
	touch := func(r ir.Reg, pos int) {
		if r == ir.RegNone {
			return
		}
		iv := &ivs[r]
		if iv.refs == 0 {
			*iv = interval{vreg: r, start: pos}
			out = append(out, iv)
		}
		iv.end = pos
		iv.refs++
	}
	touchLive := func(s bitset, pos int) {
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				touch(ir.Reg(w*64+bits.TrailingZeros64(word)), pos)
			}
		}
	}
	for _, id := range a.layout {
		b := f.Blocks[id]
		start := a.base[id]
		end := start + len(b.Insns)
		touchLive(a.liveIn[id], start)
		for i := range b.Insns {
			in := &b.Insns[i]
			pos := start + i
			touch(in.Def, pos)
			touch(in.Use[0], pos)
			touch(in.Use[1], pos)
		}
		touchLive(a.liveOut[id], end)
		if c := b.Term.CondReg; c != ir.RegNone {
			touch(c, end)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].start == out[j-1].start && out[j].vreg < out[j-1].vreg; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// callsCrossed counts call positions strictly inside the interval.
func (a *allocator) callsCrossed(iv *interval) int {
	lo := sort.SearchInts(a.calls, iv.start+1)
	hi := sort.SearchInts(a.calls, iv.end)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// scan is the linear-scan allocation over sorted intervals.
func (a *allocator) scan(ivs []*interval) {
	type active struct {
		iv  *interval
		reg ir.Reg
	}
	// Each active interval holds a register, so no table outgrows the
	// register file.
	act := make([]active, 0, len(callerRegs)+len(calleeRegs))
	freeCaller := append(make([]ir.Reg, 0, len(callerRegs)), callerRegs...)
	freeCallee := append(make([]ir.Reg, 0, len(calleeRegs)), calleeRegs...)

	release := func(r ir.Reg) {
		for _, c := range callerRegs {
			if c == r {
				freeCaller = append(freeCaller, r)
				return
			}
		}
		freeCallee = append(freeCallee, r)
	}
	take := func(pool *[]ir.Reg) ir.Reg {
		if len(*pool) == 0 {
			return ir.RegNone
		}
		r := (*pool)[0]
		*pool = (*pool)[:copy(*pool, (*pool)[1:])]
		return r
	}
	newSlot := func() int32 {
		if (a.slots+2)*4 >= frameWSet {
			a.slots = 1 // wrap: overlapping slots are a harmless model artifact
		}
		s := a.slots
		a.slots++
		return s
	}

	for _, iv := range ivs {
		// Expire finished intervals.
		kept := act[:0]
		for _, ac := range act {
			if ac.iv.end < iv.start {
				release(ac.reg)
			} else {
				kept = append(kept, ac)
			}
		}
		act = kept

		crosses := a.callsCrossed(iv)
		var reg ir.Reg
		withSaves := false
		if crosses == 0 {
			if reg = take(&freeCaller); reg == ir.RegNone {
				reg = take(&freeCallee)
			}
		} else {
			if reg = take(&freeCallee); reg == ir.RegNone &&
				a.opts.CallerSaves && len(freeCaller) > 0 && 2*crosses < iv.refs {
				reg = take(&freeCaller)
				withSaves = true
			}
		}
		if reg == ir.RegNone {
			// Try stealing from the active interval with the furthest
			// end, if it holds a register usable by this interval.
			victimIdx := -1
			for i, ac := range act {
				if ac.iv.end <= iv.end {
					continue
				}
				if crosses > 0 && !isCallee(ac.reg) {
					continue
				}
				if victimIdx < 0 || ac.iv.end > act[victimIdx].iv.end {
					victimIdx = i
				}
			}
			if victimIdx >= 0 {
				victim := act[victimIdx]
				a.spilled[victim.iv.vreg] = newSlot()
				a.assigned[victim.iv.vreg] = ir.RegNone
				a.saves[victim.iv.vreg] = noSlot
				reg = victim.reg
				act = append(act[:victimIdx], act[victimIdx+1:]...)
			} else {
				a.spilled[iv.vreg] = newSlot()
				continue
			}
		}
		a.assigned[iv.vreg] = reg
		if withSaves {
			a.saves[iv.vreg] = newSlot()
		}
		act = append(act, active{iv: iv, reg: reg})
	}
}

func isCallee(r ir.Reg) bool {
	for _, c := range calleeRegs {
		if c == r {
			return true
		}
	}
	return false
}

// rewrite maps operands to physical registers, inserting spill reloads and
// stores plus caller-save pairs around calls.
func (a *allocator) rewrite() {
	f := a.f
	// Caller-save registers needing protection, in virtual register
	// order for determinism.
	type savePair struct {
		reg  ir.Reg
		slot int32
	}
	var saveList []savePair
	for v, slot := range a.saves {
		if slot != noSlot {
			saveList = append(saveList, savePair{reg: a.assigned[v], slot: slot})
		}
	}

	phys := func(r ir.Reg) (ir.Reg, bool) {
		if r == ir.RegNone {
			return r, false
		}
		if p := a.assigned[r]; p != ir.RegNone {
			return p, false
		}
		if a.spilled[r] != noSlot {
			return r, true
		}
		// Never-live register (e.g. dead def): park in scratch.
		return scratchA, false
	}

	// Every block's rewritten body is carved from one slab, with room for
	// four inserted instructions before it needs its own.
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insns) + 4
	}
	slab := make([]ir.Insn, n)
	for _, b := range f.Blocks {
		n := len(b.Insns) + 4
		out := slab[:0:n]
		slab = slab[n:]
		for i := range b.Insns {
			in := b.Insns[i]

			if in.Op == isa.OpCall && !in.HasFlag(ir.FlagTailCall) {
				for _, sp := range saveList {
					out = append(out, ir.Insn{Op: isa.OpStore,
						Use: [2]ir.Reg{sp.reg}, Imm: sp.slot,
						Mem: a.frame, Flags: ir.FlagSave})
				}
			}

			scratch := scratchA
			for k, u := range in.Use {
				if u == ir.RegNone {
					continue
				}
				p, sp := phys(u)
				if sp {
					slot := a.spilled[u]
					out = append(out, ir.Insn{Op: isa.OpLoad, Def: scratch,
						Imm: slot, Mem: a.frame, Flags: ir.FlagSpill})
					in.Use[k] = scratch
					if scratch == scratchA {
						scratch = scratchB
					}
				} else {
					in.Use[k] = p
				}
			}
			storeAfter := int32(-1)
			if in.Def != ir.RegNone {
				p, sp := phys(in.Def)
				if sp {
					storeAfter = a.spilled[in.Def]
					in.Def = scratchA
				} else {
					in.Def = p
				}
			}
			out = append(out, in)
			if storeAfter >= 0 {
				out = append(out, ir.Insn{Op: isa.OpStore,
					Use: [2]ir.Reg{scratchA}, Imm: storeAfter,
					Mem: a.frame, Flags: ir.FlagSpill})
			}

			if in.Op == isa.OpCall && !in.HasFlag(ir.FlagTailCall) {
				for _, sp := range saveList {
					out = append(out, ir.Insn{Op: isa.OpLoad, Def: sp.reg,
						Imm: sp.slot, Mem: a.frame, Flags: ir.FlagSave})
				}
			}
		}
		b.Insns = out

		if c := b.Term.CondReg; c != ir.RegNone {
			p, sp := phys(c)
			if sp {
				b.Insns = append(b.Insns, ir.Insn{Op: isa.OpLoad, Def: scratchA,
					Imm: a.spilled[c], Mem: a.frame, Flags: ir.FlagSpill})
				b.Term.CondReg = scratchA
			} else {
				b.Term.CondReg = p
			}
		}
	}
}

// prologue saves used callee-saved registers at entry and restores them at
// every return, modelling real frame construction costs (which inlining
// removes and which grow code size).
func (a *allocator) prologue() {
	f := a.f
	var used [scratchB + 1]bool
	for _, p := range a.assigned {
		if isCallee(p) {
			used[p] = true
		}
	}
	var regs []ir.Reg
	for _, r := range calleeRegs {
		if used[r] {
			regs = append(regs, r)
		}
	}
	if len(regs) == 0 && a.slots == 0 {
		return
	}
	// Save slots beyond the spill area.
	baseSlot := a.slots
	a.slots += int32(len(regs))

	entry := f.Blocks[0]
	var pro []ir.Insn
	for i, r := range regs {
		pro = append(pro, ir.Insn{Op: isa.OpStore, Use: [2]ir.Reg{r},
			Imm: baseSlot + int32(i), Mem: a.frame, Flags: ir.FlagPrologue})
	}
	entry.Insns = append(pro, entry.Insns...)

	for _, b := range f.Blocks {
		if b.Term.Kind != ir.TermRet {
			continue
		}
		// Restores go before a tail call when present, else at the end.
		insertAt := len(b.Insns)
		if n := len(b.Insns); n > 0 && b.Insns[n-1].Op == isa.OpCall &&
			b.Insns[n-1].HasFlag(ir.FlagTailCall) {
			insertAt = n - 1
		}
		var epi []ir.Insn
		for i, r := range regs {
			epi = append(epi, ir.Insn{Op: isa.OpLoad, Def: r,
				Imm: baseSlot + int32(i), Mem: a.frame, Flags: ir.FlagPrologue})
		}
		rest := append([]ir.Insn(nil), b.Insns[insertAt:]...)
		b.Insns = append(append(b.Insns[:insertAt:insertAt], epi...), rest...)
	}
}
