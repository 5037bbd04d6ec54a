// Package passes implements the optimisation passes of the portable
// compiler, one per gcc flag of the paper's Figure 3 space, plus the
// always-on baseline passes (local value numbering, dead-code elimination,
// loop-invariant code motion) that every optimisation level runs.
//
// Passes mutate ir.Module in place. The pipeline (pipeline.go) sequences
// them according to an opt.Config, then hands the module to the register
// allocator and the post-register-allocation cleanups.
package passes

import (
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// DeadCode removes pure instructions whose results are never used (the
// always-on DCE every pipeline stage relies on). Returns removals.
func DeadCode(f *ir.Func) int { return deadCode(f) }

// StoredStreams exposes the module's stored-stream alias summary for the
// pipeline (see storedStreams).
func StoredStreams(m *ir.Module) map[int32]bool { return storedStreams(m) }

// useCounts counts register uses in a function, including branch condition
// registers. Index by register.
func useCounts(f *ir.Func) []int32 {
	uses := make([]int32, f.NextReg)
	for _, b := range f.Blocks {
		for i := range b.Insns {
			for _, u := range b.Insns[i].Use {
				if u != ir.RegNone {
					uses[u]++
				}
			}
		}
		if b.Term.CondReg != ir.RegNone {
			uses[b.Term.CondReg]++
		}
	}
	return uses
}

// defSite locates the single definition of a register.
type defSite struct {
	block int
	index int
}

// singleDefs maps each register to its unique definition site; registers
// with zero or multiple definitions (merge registers) map to nil. The
// sites share one backing array.
func singleDefs(f *ir.Func) []*defSite {
	defs := make([]*defSite, f.NextReg)
	sites := make([]defSite, f.NextReg)
	multi := make([]bool, f.NextReg)
	for _, b := range f.Blocks {
		for i := range b.Insns {
			d := b.Insns[i].Def
			if d == ir.RegNone {
				continue
			}
			if defs[d] != nil || multi[d] {
				defs[d] = nil
				multi[d] = true
				continue
			}
			sites[d] = defSite{block: b.ID, index: i}
			defs[d] = &sites[d]
		}
	}
	return defs
}

// deadCode removes pure instructions whose results are never used,
// iterating to a fixpoint. Returns the number of instructions removed.
// Always-on at every optimisation level (like gcc's DCE).
func deadCode(f *ir.Func) int {
	removed := 0
	for {
		uses := useCounts(f)
		changed := false
		for _, b := range f.Blocks {
			kept := b.Insns[:0]
			for i := range b.Insns {
				in := b.Insns[i]
				dead := in.Def != ir.RegNone && uses[in.Def] == 0 && in.IsPure() &&
					!in.HasFlag(ir.FlagMerge)
				if dead {
					removed++
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Insns = kept
		}
		if !changed {
			return removed
		}
	}
}

// rewriteUses replaces every use of register from with register to across
// the function (instruction operands and branch conditions).
func rewriteUses(f *ir.Func, from, to ir.Reg) {
	for _, b := range f.Blocks {
		for i := range b.Insns {
			for k, u := range b.Insns[i].Use {
				if u == from {
					b.Insns[i].Use[k] = to
				}
			}
		}
		if b.Term.CondReg == from {
			b.Term.CondReg = to
		}
	}
}

// applyReplacements rewrites register uses through a replacement map in one
// pass, resolving chains (a->b, b->c becomes a->c).
func applyReplacements(f *ir.Func, repl map[ir.Reg]ir.Reg) {
	if len(repl) == 0 {
		return
	}
	resolve := func(r ir.Reg) ir.Reg {
		seen := 0
		for {
			n, ok := repl[r]
			if !ok || seen > len(repl) {
				return r
			}
			r = n
			seen++
		}
	}
	for from := range repl {
		repl[from] = resolve(repl[from])
	}
	for _, b := range f.Blocks {
		for i := range b.Insns {
			for k, u := range b.Insns[i].Use {
				if n, ok := repl[u]; ok {
					b.Insns[i].Use[k] = n
				}
			}
		}
		if n, ok := repl[b.Term.CondReg]; ok {
			b.Term.CondReg = n
		}
	}
}

// removeSelfMoves deletes "move r <- r" instructions, which appear as
// harmless residue of PRE and coalescing.
func removeSelfMoves(f *ir.Func) int {
	removed := 0
	for _, b := range f.Blocks {
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			if in.Op == isa.OpMove && in.Def == in.Use[0] {
				removed++
				continue
			}
			kept = append(kept, in)
		}
		b.Insns = kept
	}
	return removed
}

// blockFreqs estimates relative execution frequencies from branch
// probabilities and trip counts by damped iterative flow propagation.
// The entry block has frequency 1.
func blockFreqs(f *ir.Func) []float64 {
	n := len(f.Blocks)
	freq := make([]float64, n)
	freq[0] = 1
	const (
		iters   = 60
		maxFreq = 1e9
	)
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		next[0] = 1
		for _, b := range f.Blocks {
			fb := freq[b.ID]
			if fb == 0 {
				continue
			}
			switch b.Term.Kind {
			case ir.TermFall:
				next[b.Term.Fall] += fb
			case ir.TermJump:
				next[b.Term.Taken] += fb
			case ir.TermBranch:
				p := b.Term.Prob
				if b.Term.Trip > 0 {
					p = float64(b.Term.Trip-1) / float64(b.Term.Trip)
				}
				next[b.Term.Taken] += fb * p
				next[b.Term.Fall] += fb * (1 - p)
			}
		}
		for i := range next {
			if next[i] > maxFreq {
				next[i] = maxFreq
			}
		}
		freq = next
	}
	return freq
}

// edgeProb returns the probability of the Taken edge of a branch.
func edgeProb(t ir.Term) float64 {
	if t.Trip > 0 {
		return float64(t.Trip-1) / float64(t.Trip)
	}
	return t.Prob
}

// compact removes unreachable blocks and renumbers the remainder,
// preserving layout order for surviving blocks. Always-on cleanup run
// after any pass that can disconnect blocks.
func compact(f *ir.Func) {
	f.Invalidate()
	f.Analyze()
	n := len(f.Blocks)
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if f.Reachable(b.ID) {
			remap[b.ID] = len(kept)
			kept = append(kept, b)
		}
	}
	if len(kept) == n {
		return
	}
	for _, b := range kept {
		b.ID = remap[b.ID]
		if b.Term.Kind == ir.TermJump || b.Term.Kind == ir.TermBranch {
			b.Term.Taken = remap[b.Term.Taken]
		}
		if b.Term.Kind == ir.TermFall || b.Term.Kind == ir.TermBranch {
			b.Term.Fall = remap[b.Term.Fall]
		}
	}
	if f.Layout != nil {
		var nl []int
		for _, id := range f.Layout {
			if remap[id] >= 0 {
				nl = append(nl, remap[id])
			}
		}
		f.Layout = nl
	}
	f.Blocks = kept
	f.Invalidate()
}

// insnKey builds the value-numbering identity of a pure instruction given
// the value numbers of its operands. Imm acts as the semantic tag
// distinguishing logically different computations (see internal/prog).
type insnKey struct {
	op       isa.Op
	vn0, vn1 int32
	imm      int32
	stream   int32 // read-only load stream, 0 otherwise
}

func keyOf(in *ir.Insn, vnOf func(ir.Reg) int32) (insnKey, bool) {
	if !in.IsPure() || in.Def == ir.RegNone || in.HasFlag(ir.FlagMerge) {
		return insnKey{}, false
	}
	k := insnKey{op: in.Op, imm: in.Imm}
	k.vn0 = vnOf(in.Use[0])
	k.vn1 = vnOf(in.Use[1])
	if in.Op == isa.OpLoad {
		k.stream = in.Mem.Stream
	}
	if in.Op == isa.OpMove {
		// Copies are transparent for value numbering.
		return k, false
	}
	return k, true
}
