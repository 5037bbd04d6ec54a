package passes

import (
	"math/bits"
	"sync"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// vnAssign assigns value numbers to registers: registers defined by
// equivalent pure computations receive the same number; everything else is
// opaque. Copies are transparent. Because single-definition registers are
// immutable and read-only loads have no kills, value numbers are valid
// function-wide.
//
// Its tables come from vnPool and go back with release, so a compile's
// many value-numbering passes reuse them instead of allocating per pass.
type vnAssign struct {
	f        *ir.Func
	defs     []uint8   // per register: definitions seen, capped at 2
	defInsn  []ir.Insn // snapshot of each register's unique definition
	vn       []int32
	visiting []bool
	keys     []vnSlot // open-addressed expression -> value number table
	next     int32
	repl     []ir.Reg // per register: what the pass folds it onto, RegNone if kept

	// Scratch for computeAvailability, reused like the tables above.
	words []uint64
	sets  []bitset
	canon []canonSite

	// Scratch for LocalCSE: per value number, its holder in the current
	// block's table; the tables themselves as runs of ents, one per block.
	holder []ir.Reg
	ents   []vnEntry
	runs   [][2]int
}

// vnEntry is one value-table row: value number vn is held in reg.
type vnEntry struct {
	vn  int32
	reg ir.Reg
}

// vnSlot is one row of the expression table; id 0 marks it empty.
type vnSlot struct {
	key insnKey
	id  int32
}

var vnPool = sync.Pool{New: func() any { return new(vnAssign) }}

// grown returns buf resized to n zeroed elements, reusing its capacity.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func newVNAssign(f *ir.Func) *vnAssign {
	v := vnPool.Get().(*vnAssign)
	n := int(f.NextReg)
	v.f = f
	v.defs = grown(v.defs, n)
	if cap(v.defInsn) < n {
		v.defInsn = make([]ir.Insn, n)
	}
	v.defInsn = v.defInsn[:n] // read only where defs counts a definition
	v.vn = grown(v.vn, n)
	v.visiting = grown(v.visiting, n)
	v.repl = grown(v.repl, n)
	v.next = 1
	// Snapshot unique definitions so later block mutation by the calling
	// pass cannot invalidate operand resolution.
	ndefs := 0
	for _, b := range f.Blocks {
		for i := range b.Insns {
			d := b.Insns[i].Def
			if d == ir.RegNone {
				continue
			}
			if v.defs[d] == 0 {
				v.defInsn[d] = b.Insns[i]
			}
			v.defs[d] = min(v.defs[d]+1, 2)
			ndefs++
		}
	}
	// Each definition adds at most one expression: the table stays at
	// most half full.
	v.keys = grown(v.keys, 1<<bits.Len(uint(2*ndefs)))
	return v
}

// release hands the tables back to the pool; v must not be used after.
func (v *vnAssign) release() {
	v.f = nil
	vnPool.Put(v)
}

// defOK reports whether register r has exactly one definition.
func (v *vnAssign) defOK(r ir.Reg) bool { return v.defs[r] == 1 }

func (v *vnAssign) fresh() int32 {
	id := v.next
	v.next++
	return id
}

// of returns the value number of register r. Registers created after the
// assignment was built (by the running pass itself) are opaque.
func (v *vnAssign) of(r ir.Reg) int32 {
	if r == ir.RegNone {
		return 0
	}
	if int(r) >= len(v.vn) {
		return -int32(r) // stable opaque id outside the numbered range
	}
	if v.vn[r] != 0 {
		return v.vn[r]
	}
	if v.visiting[r] {
		// Cycle through merge registers: opaque.
		v.vn[r] = v.fresh()
		return v.vn[r]
	}
	v.visiting[r] = true
	var cand int32
	if !v.defOK(r) {
		cand = v.fresh()
	} else {
		in := &v.defInsn[r]
		if in.Op == isa.OpMove && !in.HasFlag(ir.FlagMerge) {
			cand = v.of(in.Use[0])
		} else if key, ok := keyOf(in, v.of); ok {
			id := v.slot(key)
			if *id == 0 {
				*id = v.fresh()
			}
			cand = *id
		} else {
			cand = v.fresh()
		}
	}
	v.visiting[r] = false
	if v.vn[r] == 0 {
		v.vn[r] = cand
	}
	return v.vn[r]
}

// slot returns the value-number cell of expression k in v.keys, claiming
// an empty row (id 0) for it when k is new.
func (v *vnAssign) slot(k insnKey) *int32 {
	h := uint64(uint32(k.vn0))*0x9e3779b97f4a7c15 ^ uint64(uint32(k.vn1))*0xc2b2ae3d27d4eb4f ^
		uint64(uint32(k.imm))*0x165667b19e3779f9 ^ uint64(uint32(k.stream))*0x27d4eb2f165667c5 ^
		uint64(k.op)
	mask := uint64(len(v.keys) - 1)
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		s := &v.keys[i]
		if s.id == 0 {
			s.key = k
			return &s.id
		}
		if s.key == k {
			return &s.id
		}
	}
}

// exprOf returns the value number an instruction computes, and whether the
// instruction is a value-numberable pure computation.
func (v *vnAssign) exprOf(in *ir.Insn) (int32, bool) {
	if in.Def == ir.RegNone || int(in.Def) >= len(v.defs) || !v.defOK(in.Def) ||
		in.Op == isa.OpMove || !in.IsPure() || in.HasFlag(ir.FlagMerge) {
		return 0, false
	}
	if v.vn[in.Def] == 0 {
		// Operands first, in the order keyOf numbers them.
		v.of(in.Use[0])
		v.of(in.Use[1])
	}
	return v.of(in.Def), true
}

// numberAll numbers every expression of f in the order rpo visits them,
// so v.next bounds the value numbers the calling pass will see.
func (v *vnAssign) numberAll(rpo []int) {
	for _, id := range rpo {
		b := v.f.Blocks[id]
		for i := range b.Insns {
			v.exprOf(&b.Insns[i])
		}
	}
}

// LocalCSE performs local value numbering within basic blocks, the
// always-on base CSE of every optimisation level. With followJumps the
// value table flows into single-predecessor successors (extended basic
// blocks, gcc's -fcse-follow-jumps); with skipBlocks it additionally flows
// through empty blocks (gcc's -fcse-skip-blocks).
//
// Returns the number of eliminated instructions.
func LocalCSE(f *ir.Func, followJumps, skipBlocks bool) int {
	if f.Library {
		return 0
	}
	v := newVNAssign(f)
	defer v.release()
	rpo := f.RPO()
	v.numberAll(rpo)
	// A block's table is its run of v.ents: its unique predecessor's run,
	// copied, then its own rows. holder mirrors the current block's run.
	holder := grown(v.holder, int(v.next))
	runs := grown(v.runs, len(f.Blocks))
	ents := v.ents[:0]
	eliminated := 0
	for _, id := range rpo {
		b := f.Blocks[id]
		start := len(ents)
		// Inherit the table from a unique predecessor (an empty run when
		// it comes later in RPO).
		if followJumps {
			if pred := uniquePred(f, id, skipBlocks); pred >= 0 {
				ents = append(ents, ents[runs[pred][0]:runs[pred][1]]...)
			}
		}
		for _, r := range ents[start:] {
			holder[r.vn] = r.reg
		}
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			e, ok := v.exprOf(&in)
			if !ok {
				kept = append(kept, in)
				continue
			}
			if h := holder[e]; h != ir.RegNone && h != in.Def {
				// Redundant: fold the definition onto the holder.
				v.repl[in.Def] = h
				eliminated++
				continue
			} else if h == ir.RegNone {
				holder[e] = in.Def
				ents = append(ents, vnEntry{vn: e, reg: in.Def})
			}
			kept = append(kept, in)
		}
		b.Insns = kept
		runs[id] = [2]int{start, len(ents)}
		for _, r := range ents[start:] {
			holder[r.vn] = ir.RegNone
		}
	}
	v.holder, v.runs, v.ents = holder, runs, ents
	if eliminated > 0 {
		applyReplacements(f, v.repl)
		deadCode(f)
	}
	return eliminated
}

// uniquePred returns the single predecessor of block id, optionally
// skipping through empty single-pred blocks, or -1.
func uniquePred(f *ir.Func, id int, skipEmpty bool) int {
	b := f.Blocks[id]
	if len(b.Preds) != 1 {
		return -1
	}
	p := b.Preds[0]
	if skipEmpty {
		for hops := 0; hops < 4; hops++ {
			pb := f.Blocks[p]
			if len(pb.Insns) != 0 || len(pb.Preds) != 1 {
				break
			}
			p = pb.Preds[0]
		}
	}
	return p
}
