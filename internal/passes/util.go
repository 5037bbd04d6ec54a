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

// defSite locates the definition of a register.
type defSite struct {
	block int // noDef or manyDefs unless the register has one definition
	index int
}

const (
	noDef    = -1
	manyDefs = -2 // a merge register
)

// single reports whether the register has exactly one definition.
func (d defSite) single() bool { return d.block >= 0 }

// singleDefs maps each register to its unique definition site.
func singleDefs(f *ir.Func) []defSite {
	defs := make([]defSite, f.NextReg)
	for r := range defs {
		defs[r].block = noDef
	}
	for _, b := range f.Blocks {
		for i := range b.Insns {
			switch d := b.Insns[i].Def; {
			case d == ir.RegNone:
			case defs[d].block == noDef:
				defs[d] = defSite{block: b.ID, index: i}
			default:
				defs[d].block = manyDefs
			}
		}
	}
	return defs
}

// deadCode removes pure instructions whose results are never used,
// iterating to a fixpoint: a removal releases its operands' uses, and
// a sweep that removes nothing ends it. Returns the number removed.
// Always-on at every optimisation level (like gcc's DCE).
func deadCode(f *ir.Func) int {
	uses := useCounts(f)
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			kept := b.Insns[:0]
			for i := range b.Insns {
				in := b.Insns[i]
				if in.Def != ir.RegNone && uses[in.Def] == 0 && in.IsPure() &&
					!in.HasFlag(ir.FlagMerge) {
					for _, u := range in.Use {
						uses[u]--
					}
					removed++
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Insns = kept
		}
	}
	return removed
}

// applyReplacements rewrites register uses through a register-indexed
// replacement table (RegNone: keep) in one pass, resolving chains (a->b,
// b->c becomes a->c). Registers past the table's end are kept.
func applyReplacements(f *ir.Func, repl []ir.Reg) {
	to := func(r ir.Reg) ir.Reg {
		if int(r) < len(repl) && repl[r] != ir.RegNone {
			return repl[r]
		}
		return r
	}
	for from, r := range repl {
		for seen := 0; to(r) != r && seen < len(repl); seen++ {
			r = to(r)
		}
		repl[from] = r
	}
	for _, b := range f.Blocks {
		for i := range b.Insns {
			u := &b.Insns[i].Use
			u[0], u[1] = to(u[0]), to(u[1])
		}
		b.Term.CondReg = to(b.Term.CondReg)
	}
}

// blockFreqs estimates relative execution frequencies from branch
// probabilities and trip counts by damped iterative flow propagation.
// The entry block has frequency 1.
func blockFreqs(f *ir.Func) []float64 {
	n := len(f.Blocks)
	freq, next := make([]float64, n), make([]float64, n)
	freq[0] = 1
	const (
		iters   = 60
		maxFreq = 1e9
	)
	for it := 0; it < iters; it++ {
		clear(next)
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
		freq, next = next, freq
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
// after any pass that can disconnect blocks, once that pass has
// invalidated the analysis.
func compact(f *ir.Func) {
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
