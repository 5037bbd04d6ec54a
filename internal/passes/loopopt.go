package passes

import (
	"slices"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// StrengthReduce rewrites multiplications by loop induction variables
// (marked FlagMulByIndex by the front end) into incremental additions
// carried by an accumulator register (gcc's -fstrength-reduce). The MAC
// unit multiply (3-cycle latency) becomes a 1-cycle ALU add.
func StrengthReduce(f *ir.Func) int {
	if f.Library {
		return 0
	}
	defs := singleDefs(f)
	reduced := 0
	for _, l := range f.Loops() {
		if l.Preheader < 0 {
			continue
		}
		pre := f.Blocks[l.Preheader]
		for _, id := range l.Blocks {
			b := f.Blocks[id]
			for i := range b.Insns {
				in := &b.Insns[i]
				if in.Op != isa.OpMul || !in.HasFlag(ir.FlagMulByIndex) {
					continue
				}
				if in.Def == ir.RegNone || !defs[in.Def].single() {
					continue // already a merge register
				}
				// Initialise the accumulator in the preheader, then
				// replace the multiply with an incremental add.
				pre.Insns = append(pre.Insns, ir.Insn{
					Op: isa.OpALU, Def: in.Def, Imm: in.Imm,
					Flags: ir.FlagMerge,
				})
				*in = ir.Insn{
					Op: isa.OpALU, Def: in.Def, Use: [2]ir.Reg{in.Def},
					Imm:   in.Imm,
					Flags: ir.FlagMerge | ir.FlagInduction,
				}
				defs[in.Def].block = manyDefs
				reduced++
			}
		}
	}
	return reduced
}

// chainOf identifies an unrollable loop body: header..latch forming a
// single fall-through/jump chain with the counted back edge on the latch.
// Returns the chain block IDs in order, or nil.
func chainOf(f *ir.Func, l *ir.Loop) []int {
	latch := f.Blocks[l.Latch]
	if latch.Term.Kind != ir.TermBranch || latch.Term.Trip <= 0 ||
		latch.Term.Taken != l.Header {
		return nil
	}
	chain := []int{l.Header}
	cur := l.Header
	for cur != l.Latch {
		b := f.Blocks[cur]
		var next int
		switch b.Term.Kind {
		case ir.TermFall:
			next = b.Term.Fall
		case ir.TermJump:
			next = b.Term.Taken
		default:
			return nil // internal control flow: not a simple chain
		}
		if !l.Contains(next) || len(f.Blocks[next].Preds) != 1 {
			return nil
		}
		chain = append(chain, next)
		cur = next
		if len(chain) > len(l.Blocks) {
			return nil
		}
	}
	if len(chain) != len(l.Blocks) {
		return nil
	}
	return chain
}

// chainSize counts body instructions plus materialised control.
func chainSize(f *ir.Func, chain []int) int {
	n := 0
	for _, id := range chain {
		n += len(f.Blocks[id].Insns) + 1
	}
	return n
}

// escapes reports whether any non-merge register defined in the block set
// is used outside it; such loops cannot be safely duplicated without SSA
// repair, so unrolling and unswitching skip them. defs is singleDefs(f).
func escapes(f *ir.Func, blocks []int, defs []defSite) bool {
	in := make([]bool, len(f.Blocks))
	for _, id := range blocks {
		in[id] = true
	}
	definedIn := func(r ir.Reg) bool { return defs[r].single() && in[defs[r].block] }
	for _, b := range f.Blocks {
		if in[b.ID] {
			continue
		}
		for i := range b.Insns {
			for _, u := range b.Insns[i].Use {
				if definedIn(u) {
					return true
				}
			}
		}
		if definedIn(b.Term.CondReg) {
			return true
		}
	}
	return false
}

// cloneChain duplicates a block chain (or, for unswitching, any block
// set), renaming non-merge definitions and rewiring intra-set uses and
// targets. Returns the new block IDs. defs is singleDefs(f) from before
// any copy of the set: a copy renames what it defines, so the set's own
// registers keep their definition counts.
func cloneChain(f *ir.Func, chain []int, defs []defSite) []int {
	rename := make([]ir.Reg, f.NextReg) // RegNone: keep
	for _, id := range chain {
		for i := range f.Blocks[id].Insns {
			d := f.Blocks[id].Insns[i].Def
			if d != ir.RegNone && defs[d].single() && rename[d] == ir.RegNone {
				rename[d] = f.NewReg()
			}
		}
	}
	remap := make([]int, len(f.Blocks)) // 0: not in the chain (no copy is block 0)
	newIDs := make([]int, 0, len(chain))
	for _, id := range chain {
		nb := &ir.Block{ID: len(f.Blocks), Align: f.Blocks[id].Align}
		remap[id] = nb.ID
		f.Blocks = append(f.Blocks, nb)
		newIDs = append(newIDs, nb.ID)
	}
	for k, id := range chain {
		src := f.Blocks[id]
		dst := f.Blocks[newIDs[k]]
		dst.Insns = make([]ir.Insn, len(src.Insns))
		copy(dst.Insns, src.Insns)
		for i := range dst.Insns {
			in := &dst.Insns[i]
			if r := rename[in.Def]; r != ir.RegNone {
				in.Def = r
			}
			for j, u := range in.Use {
				if r := rename[u]; r != ir.RegNone {
					in.Use[j] = r
				}
			}
		}
		dst.Term = src.Term
		if r := rename[dst.Term.CondReg]; r != ir.RegNone {
			dst.Term.CondReg = r
		}
		if dst.Term.Kind == ir.TermJump || dst.Term.Kind == ir.TermBranch {
			if n := remap[dst.Term.Taken]; n != 0 {
				dst.Term.Taken = n
			}
		}
		if dst.Term.Kind == ir.TermFall || dst.Term.Kind == ir.TermBranch {
			if n := remap[dst.Term.Fall]; n != 0 {
				dst.Term.Fall = n
			}
		}
	}
	return newIDs
}

// Unroll replicates counted-loop bodies (gcc's -funroll-loops), bounded by
// max_unroll_times and max_unrolled_insns. Only simple chain-shaped counted
// loops whose values do not escape are unrolled; the latch branch of the
// last copy carries the reduced trip count. Returns loops unrolled.
func Unroll(f *ir.Func, maxTimes, maxInsns int) int {
	if f.Library {
		return 0
	}
	unrolled := 0
	loops := f.Loops()
	for _, l := range loops {
		chain := chainOf(f, l)
		if chain == nil {
			continue
		}
		defs := singleDefs(f)
		if escapes(f, chain, defs) {
			continue
		}
		latch := f.Blocks[l.Latch]
		trip := int(latch.Term.Trip)
		size := chainSize(f, chain)
		u := maxTimes
		if size > 0 && maxInsns/size < u {
			u = maxInsns / size
		}
		if u > trip {
			u = trip
		}
		if u < 2 {
			continue
		}
		origTerm := latch.Term
		prevTail := l.Latch
		for copyN := 1; copyN < u; copyN++ {
			ids := cloneChain(f, chain, defs)
			// Previous tail falls into this copy's head.
			f.Blocks[prevTail].Term = ir.Term{Kind: ir.TermFall, Fall: ids[0]}
			prevTail = ids[len(ids)-1]
		}
		// Final copy carries the back edge with the reduced trip count.
		t := origTerm
		nt := (trip + u/2) / u
		if nt < 1 {
			nt = 1
		}
		t.Trip = int32(nt)
		f.Blocks[prevTail].Term = t
		unrolled++
		f.Invalidate()
	}
	return unrolled
}

// Unswitch hoists loop-invariant conditional branches out of loops by
// duplicating the loop body per branch direction (gcc's -funswitch-loops):
// the branch executes once per loop entry instead of once per iteration,
// at the cost of nearly doubling the loop's code size. Returns the number
// of unswitched loops.
func Unswitch(f *ir.Func) int {
	if f.Library {
		return 0
	}
	count := 0
	for _, l := range f.Loops() {
		if l.Preheader < 0 {
			continue
		}
		// Find an invariant branch inside the loop.
		condBlk := -1
		for _, id := range l.Blocks {
			t := f.Blocks[id].Term
			if t.Kind == ir.TermBranch && t.InvariantIn == l.Header &&
				l.Contains(t.Taken) && l.Contains(t.Fall) {
				condBlk = id
				break
			}
		}
		if condBlk < 0 {
			continue
		}
		defs := singleDefs(f)
		if escapes(f, l.Blocks, defs) {
			continue
		}
		orig := f.Blocks[condBlk].Term
		clones := cloneChain(f, l.Blocks, defs)
		// Original copy assumes the taken direction; clone the fall one.
		f.Blocks[condBlk].Term = ir.Term{Kind: ir.TermJump, Taken: orig.Taken}
		cloneCond := clones[slices.Index(l.Blocks, condBlk)]
		ct := f.Blocks[cloneCond].Term
		f.Blocks[cloneCond].Term = ir.Term{Kind: ir.TermJump, Taken: ct.Fall}
		// The preheader now selects the version once per entry.
		pre := f.Blocks[l.Preheader]
		cloneHeader := clones[slices.Index(l.Blocks, l.Header)]
		pre.Term = ir.Term{
			Kind: ir.TermBranch, Taken: l.Header, Fall: cloneHeader,
			Prob: orig.Prob, CondReg: orig.CondReg,
		}
		count++
		f.Invalidate()
	}
	return count
}
