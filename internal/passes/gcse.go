package passes

import (
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// bitset is a simple dense bitset over value numbers.
type bitset []uint64

func (s bitset) set(i int32)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitset) has(i int32) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

func (s bitset) copyFrom(o bitset) {
	copy(s, o)
}

func (s bitset) intersect(o bitset) {
	for i := range s {
		s[i] &= o[i]
	}
}

func (s bitset) union(o bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// availability computes the available-expressions dataflow over value
// numbers: an expression is available at block entry if it is computed on
// every path from the entry. There are no kills because single-definition
// registers are immutable and numbered loads are read-only.
type availability struct {
	vn    *vnAssign
	in    []bitset
	out   []bitset
	canon []canonSite // first computation in RPO per value number, reg RegNone if none
	dirty bitset      // PRE's scratch: value numbers whose sites were mutated
}

type canonSite struct {
	block int
	reg   ir.Reg
}

// computeAvailability numbers f and solves the dataflow. Every bitset is
// carved from one slab of the value-numbering tables, so the result lives
// until the caller releases av.vn.
func computeAvailability(f *ir.Func) availability {
	v := newVNAssign(f)
	rpo := f.RPO()
	// Pre-number every expression so bitset capacity is known.
	v.numberAll(rpo)
	n := len(f.Blocks)
	words := int(v.next+63) / 64
	// gen, in and out per block, the fixpoint's scratch copy and PRE's
	// dirty set.
	v.words = grown(v.words, (3*n+2)*words)
	v.sets = grown(v.sets, 3*n)
	for i := range v.sets {
		v.sets[i] = v.words[i*words : (i+1)*words : (i+1)*words]
	}
	v.canon = grown(v.canon, int(v.next))
	gen := v.sets[:n]
	av := availability{vn: v, in: v.sets[n : 2*n], out: v.sets[2*n:], canon: v.canon,
		dirty: v.words[(3*n+1)*words:]}
	for _, id := range rpo {
		b := f.Blocks[id]
		for i := range b.Insns {
			if e, ok := v.exprOf(&b.Insns[i]); ok {
				gen[id].set(e)
				if av.canon[e].reg == ir.RegNone {
					av.canon[e] = canonSite{block: id, reg: b.Insns[i].Def}
				}
			}
		}
	}
	for _, id := range rpo {
		if id != rpo[0] {
			av.in[id].fill()
		}
		av.out[id].copyFrom(av.in[id])
		av.out[id].union(gen[id])
	}
	old := bitset(v.words[3*n*words : (3*n+1)*words])
	for changed := true; changed; {
		changed = false
		for _, id := range rpo {
			if id == rpo[0] {
				continue
			}
			b := f.Blocks[id]
			first := true
			for _, p := range b.Preds {
				if !f.Reachable(p) {
					continue
				}
				if first {
					av.in[id].copyFrom(av.out[p])
					first = false
				} else {
					av.in[id].intersect(av.out[p])
				}
			}
			old.copyFrom(av.out[id])
			av.out[id].copyFrom(av.in[id])
			av.out[id].union(gen[id])
			for i := range old {
				if old[i] != av.out[id][i] {
					changed = true
					break
				}
			}
		}
	}
	return av
}

// GCSE is dominator-based global common subexpression elimination
// (gcc's -fgcse): an instruction whose expression is available at its block
// entry, with the canonical computation in a dominating block, is folded
// onto the canonical register. Returns the number eliminated.
func GCSE(f *ir.Func) int {
	if f.Library {
		return 0
	}
	av := computeAvailability(f)
	defer av.vn.release()
	repl := av.vn.repl
	eliminated := 0
	for _, id := range f.RPO() {
		b := f.Blocks[id]
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			e, ok := av.vn.exprOf(&in)
			if ok && av.in[id].has(e) {
				c := av.canon[e]
				if c.block != id && c.reg != in.Def && f.Dominates(c.block, id) {
					repl[in.Def] = c.reg
					eliminated++
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Insns = kept
	}
	if eliminated > 0 {
		applyReplacements(f, repl)
		deadCode(f)
	}
	return eliminated
}

// PRE is partial redundancy elimination (gcc's -ftree-pre): at a two-way
// join where an expression is available from one predecessor only, the
// computation is inserted into the other predecessor and removed from the
// join. The loop-shaped case (header joining preheader and latch) turns
// conditionally-recomputed loop expressions into loop-carried registers.
// Returns the number of join computations removed.
func PRE(f *ir.Func) int {
	if f.Library {
		return 0
	}
	av := computeAvailability(f)
	defer av.vn.release()
	defs := singleDefs(f)
	repl := av.vn.repl
	removed := 0
	for _, id := range f.RPO() {
		b := f.Blocks[id]
		if len(b.Preds) != 2 {
			continue
		}
		p0, p1 := b.Preds[0], b.Preds[1]
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			e, ok := av.vn.exprOf(&in)
			if !ok || av.dirty.has(e) {
				kept = append(kept, in)
				continue
			}
			have0, have1 := av.out[p0].has(e), av.out[p1].has(e)
			if have0 == have1 {
				kept = append(kept, in)
				continue
			}
			missing, having := p0, p1
			if have0 {
				missing, having = p1, p0
			}
			// Insertion happens at the end of the missing predecessor
			// only, so that block must have a single successor (no edge
			// splitting); in the loop-invariant case this is the
			// preheader. The having side only receives a register copy,
			// which is safe on any outgoing edge.
			if f.Blocks[missing].NumSuccs() != 1 {
				kept = append(kept, in)
				continue
			}
			// The operands must be computable at the end of the missing
			// predecessor, and untouched by earlier transformations.
			if !operandsAvailableAt(f, defs, &in, missing) || touched(repl, &in) {
				kept = append(kept, in)
				continue
			}
			c := av.canon[e]
			if !f.Dominates(c.block, having) {
				kept = append(kept, in)
				continue
			}
			t := f.NewReg()
			// Insert the computation into the missing predecessor.
			clone := in
			clone.Def = t
			clone.Flags |= ir.FlagMerge
			mb := f.Blocks[missing]
			mb.Insns = append(mb.Insns, clone)
			// Make the holder value reach the join under the same name.
			// (When the canonical site is the join itself - the
			// loop-invariant case - this becomes a self-move removed
			// below; the preheader insertion carries the value.)
			hb := f.Blocks[having]
			mv := ir.Insn{Op: isa.OpMove, Def: t, Use: [2]ir.Reg{c.reg}, Flags: ir.FlagMerge}
			hb.Insns = append(hb.Insns, mv)
			// Remove the join computation.
			repl[in.Def] = t
			av.dirty.set(e)
			removed++
		}
		b.Insns = kept
	}
	if removed > 0 {
		applyReplacements(f, repl)
		for _, b := range f.Blocks {
			removeSelfMovesBlock(b)
		}
		deadCode(f)
	}
	return removed
}

// touched reports whether any operand of in has been rewritten by an
// earlier transformation in this pass (its value number would be stale).
func touched(repl []ir.Reg, in *ir.Insn) bool {
	for _, u := range in.Use {
		if int(u) < len(repl) && repl[u] != ir.RegNone {
			return true
		}
	}
	return false
}

// operandsAvailableAt reports whether every register operand of in has its
// single definition in a block dominating blk (or is undefined/none).
func operandsAvailableAt(f *ir.Func, defs []defSite, in *ir.Insn, blk int) bool {
	for _, u := range in.Use {
		if u == ir.RegNone {
			continue
		}
		ds := defs[u]
		if !ds.single() {
			return false
		}
		if ds.block != blk && !f.Dominates(ds.block, blk) {
			return false
		}
	}
	return true
}

// GCSELoadAfterStore forwards stored values to loads of the same scalar
// location within a block (gcc's -fgcse-las). Calls kill the forwarding
// because the callee may store to the location.
func GCSELoadAfterStore(f *ir.Func) int {
	if f.Library {
		return 0
	}
	forwarded := 0
	for _, b := range f.Blocks {
		lastStore := map[int32]ir.Reg{} // scalar stream -> stored value
		for i := range b.Insns {
			in := &b.Insns[i]
			switch in.Op {
			case isa.OpCall:
				lastStore = map[int32]ir.Reg{}
			case isa.OpStore:
				if in.Mem.Kind == ir.MemScalar && in.Use[0] != ir.RegNone {
					lastStore[in.Mem.Stream] = in.Use[0]
				}
			case isa.OpLoad:
				if in.Mem.Kind != ir.MemScalar {
					continue
				}
				v, ok := lastStore[in.Mem.Stream]
				if !ok || in.Def == ir.RegNone {
					continue
				}
				// Replace the load with a register copy.
				*in = ir.Insn{Op: isa.OpMove, Def: in.Def, Use: [2]ir.Reg{v},
					Flags: in.Flags &^ ir.FlagAddrCalc}
				forwarded++
			}
		}
	}
	return forwarded
}
