package passes

import (
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// InlineParams carries the five gcc inlining budgets of the Figure 3 space.
type InlineParams struct {
	// MaxInsnsAuto is the callee size limit (after subtracting the saved
	// call cost) for automatic inlining (max-inline-insns-auto).
	MaxInsnsAuto int
	// LargeFunctionInsns and LargeFunctionGrowth bound the caller: a
	// function beyond LargeFunctionInsns may grow at most
	// LargeFunctionGrowth percent (large-function-insns/-growth).
	LargeFunctionInsns  int
	LargeFunctionGrowth int
	// LargeUnitInsns and UnitGrowth bound the whole module analogously
	// (large-unit-insns, inline-unit-growth).
	LargeUnitInsns int
	UnitGrowth     int
	// CallCost is the estimated overhead of a call, credited against the
	// callee size (inline-call-cost).
	CallCost int
}

// Inline performs bottom-up call-site inlining (gcc's -finline-functions)
// under the given budgets. Library functions are opaque and never inlined.
// Returns the number of call sites inlined.
func Inline(m *ir.Module, p InlineParams) int {
	origUnit := m.Size()
	unitBudget := origUnit + origUnit*p.UnitGrowth/100
	if unitBudget < p.LargeUnitInsns {
		unitBudget = p.LargeUnitInsns
	}
	origSize := make([]int, len(m.Funcs))
	for i, f := range m.Funcs {
		origSize[i] = f.Size()
	}

	inlined := 0
	unit := origUnit
	// Bottom-up over the call graph so call chains collapse: callees are
	// processed before callers (the verifier guarantees acyclicity).
	for _, fi := range calleeFirstOrder(m) {
		f := m.Funcs[fi]
		if f.Library {
			continue
		}
		funcBudget := origSize[fi] + origSize[fi]*p.LargeFunctionGrowth/100
		if funcBudget < p.LargeFunctionInsns {
			funcBudget = p.LargeFunctionInsns
		}
		for {
			site := findInlinableCall(m, f, p)
			if site == nil {
				break
			}
			callee := m.Funcs[site.callee]
			growth := callee.Size() - 1 // the call instruction disappears
			if f.Size()+growth > funcBudget || unit+growth > unitBudget {
				// Budget exhausted: mark so we stop rescanning.
				site.insn.Flags |= ir.FlagGuard
				continue
			}
			inlineAt(f, site, callee)
			unit += growth
			inlined++
		}
		// Clear the budget markers.
		for _, b := range f.Blocks {
			for i := range b.Insns {
				if b.Insns[i].Op == isa.OpCall {
					b.Insns[i].Flags &^= ir.FlagGuard
				}
			}
		}
	}
	return inlined
}

type callSite struct {
	block  int
	index  int
	callee int
	insn   *ir.Insn
}

// findInlinableCall locates the next call site whose callee passes the
// per-callee size test.
func findInlinableCall(m *ir.Module, f *ir.Func, p InlineParams) *callSite {
	for _, b := range f.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Op != isa.OpCall || in.HasFlag(ir.FlagGuard) || in.HasFlag(ir.FlagTailCall) {
				continue
			}
			callee := m.Funcs[in.Callee]
			if callee.Library || callee.ID == f.ID {
				continue
			}
			if callee.Size()-p.CallCost > p.MaxInsnsAuto {
				in.Flags |= ir.FlagGuard // too big: skip permanently
				continue
			}
			return &callSite{block: b.ID, index: i, callee: int(in.Callee), insn: in}
		}
	}
	return nil
}

// calleeFirstOrder returns function indices so that callees precede
// callers (reverse topological order of the acyclic call graph).
func calleeFirstOrder(m *ir.Module) []int {
	n := len(m.Funcs)
	visited := make([]bool, n)
	var order []int
	var visit func(i int)
	visit = func(i int) {
		if visited[i] {
			return
		}
		visited[i] = true
		for _, b := range m.Funcs[i].Blocks {
			for j := range b.Insns {
				if b.Insns[j].Op == isa.OpCall {
					visit(int(b.Insns[j].Callee))
				}
			}
		}
		order = append(order, i)
	}
	for i := 0; i < n; i++ {
		visit(i)
	}
	return order
}

// inlineAt splices the callee body into f at the call site: the call block
// is split, the callee's blocks are copied with fresh registers and block
// IDs, rets become jumps to the continuation.
func inlineAt(f *ir.Func, site *callSite, callee *ir.Func) {
	cb := f.Blocks[site.block]

	// Split: continuation block receives the instructions after the call
	// and the original terminator.
	cont := &ir.Block{ID: len(f.Blocks), Term: cb.Term}
	cont.Insns = append(cont.Insns, cb.Insns[site.index+1:]...)
	f.Blocks = append(f.Blocks, cont)
	cb.Insns = cb.Insns[:site.index]

	// Copy callee blocks with register and block renaming.
	regMap := make([]ir.Reg, callee.NextReg) // RegNone: not yet mapped
	mapReg := func(r ir.Reg) ir.Reg {
		if r != ir.RegNone && regMap[r] == ir.RegNone {
			regMap[r] = f.NewReg()
		}
		return regMap[r]
	}
	idBase := len(f.Blocks)
	for range callee.Blocks {
		f.Blocks = append(f.Blocks, &ir.Block{ID: len(f.Blocks)})
	}
	for bi, src := range callee.Blocks {
		dst := f.Blocks[idBase+bi]
		dst.Align = src.Align
		dst.Insns = make([]ir.Insn, len(src.Insns))
		copy(dst.Insns, src.Insns)
		for i := range dst.Insns {
			in := &dst.Insns[i]
			in.Def = mapReg(in.Def)
			in.Use[0] = mapReg(in.Use[0])
			in.Use[1] = mapReg(in.Use[1])
		}
		t := src.Term
		t.CondReg = mapReg(t.CondReg)
		switch t.Kind {
		case ir.TermRet:
			t = ir.Term{Kind: ir.TermJump, Taken: cont.ID}
		case ir.TermJump:
			t.Taken += idBase
		case ir.TermBranch:
			t.Taken += idBase
			t.Fall += idBase
			if t.InvariantIn > 0 {
				t.InvariantIn += idBase
			}
		case ir.TermFall:
			t.Fall += idBase
		}
		dst.Term = t
	}

	// The call block now falls into the inlined entry.
	cb.Term = ir.Term{Kind: ir.TermFall, Fall: idBase}
	f.Invalidate()
}

// SiblingCalls converts calls in tail position (a call immediately
// followed by a return) into tail calls (gcc's -foptimize-sibling-calls):
// the return through the caller's frame is skipped. Returns conversions.
func SiblingCalls(m *ir.Module) int {
	converted := 0
	for _, f := range m.Funcs {
		if f.Library {
			continue
		}
		for _, b := range f.Blocks {
			if b.Term.Kind != ir.TermRet || len(b.Insns) == 0 {
				continue
			}
			last := &b.Insns[len(b.Insns)-1]
			if last.Op == isa.OpCall && !last.HasFlag(ir.FlagTailCall) {
				last.Flags |= ir.FlagTailCall
				converted++
			}
		}
	}
	return converted
}
