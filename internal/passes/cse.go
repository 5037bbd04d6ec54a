package passes

import (
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
	keys     map[insnKey]int32
	next     int32

	// Scratch for computeAvailability, reused like the tables above.
	words []uint64
	sets  []bitset
	canon map[int32]canonSite
}

var vnPool = sync.Pool{New: func() any {
	return &vnAssign{keys: make(map[insnKey]int32), canon: make(map[int32]canonSite)}
}}

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
	v.defInsn = grown(v.defInsn, n)
	v.vn = grown(v.vn, n)
	v.visiting = grown(v.visiting, n)
	clear(v.keys)
	v.next = 1
	// Snapshot unique definitions so later block mutation by the calling
	// pass cannot invalidate operand resolution.
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
		}
	}
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
			if id, found := v.keys[key]; found {
				cand = id
			} else {
				cand = v.fresh()
				v.keys[key] = cand
			}
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

// exprOf returns the value number an instruction computes, and whether the
// instruction is a value-numberable pure computation.
func (v *vnAssign) exprOf(in *ir.Insn) (int32, bool) {
	if in.Def == ir.RegNone || int(in.Def) >= len(v.defs) {
		return 0, false
	}
	if !v.defOK(in.Def) {
		return 0, false // merge register
	}
	if in.Op == isa.OpMove {
		return 0, false
	}
	if _, ok := keyOf(in, v.of); !ok {
		return 0, false
	}
	return v.of(in.Def), true
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
	tables := make(map[int]map[int32]ir.Reg) // per-block end-of-block table
	repl := make(map[ir.Reg]ir.Reg)
	eliminated := 0

	f.Invalidate()
	for _, id := range f.RPO() {
		b := f.Blocks[id]
		var tbl map[int32]ir.Reg
		// Inherit the table from a unique predecessor.
		if followJumps {
			pred := uniquePred(f, id, skipBlocks)
			if pred >= 0 {
				if pt, ok := tables[pred]; ok {
					tbl = make(map[int32]ir.Reg, len(pt))
					for k, h := range pt {
						tbl[k] = h
					}
				}
			}
		}
		if tbl == nil {
			tbl = make(map[int32]ir.Reg)
		}
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			e, ok := v.exprOf(&in)
			if !ok {
				kept = append(kept, in)
				continue
			}
			if h, found := tbl[e]; found && h != in.Def {
				// Redundant: fold the definition onto the holder.
				repl[in.Def] = h
				eliminated++
				continue
			}
			tbl[e] = in.Def
			kept = append(kept, in)
		}
		b.Insns = kept
		tables[id] = tbl
	}
	if eliminated > 0 {
		applyReplacements(f, repl)
		deadCode(f)
		f.Invalidate()
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
