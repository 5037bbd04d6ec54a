package passes

import (
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// VRP removes provably-redundant guard branches (gcc's -ftree-vrp): the
// front end marks range-checkable guards whose outcome is constant; value
// range propagation folds them to straight-line control flow, and the
// feeding comparison dies with them. Returns the number of folded guards.
func VRP(f *ir.Func) int {
	if f.Library {
		return 0
	}
	folded := 0
	for _, b := range f.Blocks {
		t := b.Term
		if t.Kind != ir.TermBranch || !t.Guard {
			continue
		}
		if t.Prob >= 0.5 {
			b.Term = ir.Term{Kind: ir.TermJump, Taken: t.Taken}
		} else {
			b.Term = ir.Term{Kind: ir.TermFall, Fall: t.Fall}
		}
		folded++
	}
	if folded > 0 {
		f.Invalidate()
		deadCode(f)
		compact(f)
	}
	return folded
}

// ThreadJumps retargets control transfers that land on empty forwarding
// blocks (gcc's -fthread-jumps), shortening dynamic paths; unreachable
// forwarders are then removed. Returns the number of retargeted edges.
func ThreadJumps(f *ir.Func) int {
	if f.Library {
		return 0
	}
	// finalTarget follows empty jump/fall blocks, bounded against cycles.
	finalTarget := func(id int) int {
		for hops := 0; hops < 8; hops++ {
			b := f.Blocks[id]
			if len(b.Insns) != 0 {
				return id
			}
			switch b.Term.Kind {
			case ir.TermJump:
				id = b.Term.Taken
			case ir.TermFall:
				id = b.Term.Fall
			default:
				return id
			}
		}
		return id
	}
	threaded := 0
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case ir.TermJump:
			if t := finalTarget(b.Term.Taken); t != b.Term.Taken {
				b.Term.Taken = t
				threaded++
			}
		case ir.TermFall:
			if t := finalTarget(b.Term.Fall); t != b.Term.Fall {
				// Keep kind Fall; codegen inserts a jump if needed.
				b.Term.Fall = t
				threaded++
			}
		case ir.TermBranch:
			if t := finalTarget(b.Term.Taken); t != b.Term.Taken {
				b.Term.Taken = t
				threaded++
			}
			if t := finalTarget(b.Term.Fall); t != b.Term.Fall {
				b.Term.Fall = t
				threaded++
			}
		}
	}
	if threaded > 0 {
		f.Invalidate()
		compact(f)
	}
	return threaded
}

// CrossJump merges identical instruction tails of two predecessors into
// their common successor (gcc's -fcrossjumping), shrinking code size. Run
// after register allocation, when tails genuinely coincide. Returns the
// number of instructions removed.
func CrossJump(f *ir.Func) int {
	if f.Library {
		return 0
	}
	f.Analyze() // predecessor lists must be fresh
	moved := 0
	for _, j := range f.Blocks {
		if len(j.Preds) != 2 {
			continue
		}
		a, b := f.Blocks[j.Preds[0]], f.Blocks[j.Preds[1]]
		if a == b || a.NumSuccs() != 1 || b.NumSuccs() != 1 {
			continue
		}
		k := 0
		for k < len(a.Insns) && k < len(b.Insns) {
			ia := a.Insns[len(a.Insns)-1-k]
			ib := b.Insns[len(b.Insns)-1-k]
			if !sameInsn(&ia, &ib) || ia.Op == isa.OpCall {
				break
			}
			k++
		}
		if k == 0 {
			continue
		}
		tail := make([]ir.Insn, k)
		copy(tail, a.Insns[len(a.Insns)-k:])
		a.Insns = a.Insns[:len(a.Insns)-k]
		b.Insns = b.Insns[:len(b.Insns)-k]
		j.Insns = append(tail, j.Insns...)
		moved += k
	}
	return moved
}

func sameInsn(a, b *ir.Insn) bool {
	return a.Op == b.Op && a.Def == b.Def && a.Use == b.Use &&
		a.Imm == b.Imm && a.Mem == b.Mem && a.Callee == b.Callee
}

// ReorderBlocks lays out each function along its hottest control paths
// (gcc's -freorder-blocks): starting from the entry, chains follow the
// most probable successor so hot edges become fall-throughs and cold code
// sinks to the end. The result is written to Func.Layout.
func ReorderBlocks(f *ir.Func) {
	if f.Library {
		return
	}
	freq := blockFreqs(f)
	n := len(f.Blocks)
	placed := make([]bool, n)
	layout := make([]int, 0, n)

	// Seed blocks in frequency order, chaining greedily from each.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Entry must be first.
	var place func(id int)
	place = func(id int) {
		for id >= 0 && !placed[id] {
			placed[id] = true
			layout = append(layout, id)
			b := f.Blocks[id]
			next := -1
			switch b.Term.Kind {
			case ir.TermFall:
				next = b.Term.Fall
			case ir.TermJump:
				next = b.Term.Taken
			case ir.TermBranch:
				p := edgeProb(b.Term)
				// Prefer the likely edge as the fall-through.
				if p >= 0.5 {
					if !placed[b.Term.Taken] {
						next = b.Term.Taken
					} else {
						next = b.Term.Fall
					}
				} else {
					if !placed[b.Term.Fall] {
						next = b.Term.Fall
					} else {
						next = b.Term.Taken
					}
				}
			}
			if next >= 0 && placed[next] {
				next = -1
			}
			id = next
		}
	}
	place(0)
	// Remaining blocks: hottest first.
	for {
		best, bestF := -1, -1.0
		for i := 0; i < n; i++ {
			if !placed[i] && freq[i] > bestF {
				best, bestF = i, freq[i]
			}
		}
		if best < 0 {
			break
		}
		place(best)
	}
	f.Layout = layout
}

// AlignFlags selects which alignment passes run.
type AlignFlags struct {
	Functions bool // falign_functions: function entries to 16 bytes
	Loops     bool // falign_loops: loop headers to 8 bytes
	Jumps     bool // falign_jumps: jump-only targets to 8 bytes
	Labels    bool // falign_labels: all join points to 8 bytes
}

// Align applies the requested alignment passes by annotating blocks and
// functions; the code generator inserts the padding. Padding executed on
// fall-through paths costs real no-ops, and padding enlarges the I-cache
// footprint - alignment is not free.
func Align(f *ir.Func, flags AlignFlags) {
	if f.Library {
		return
	}
	if flags.Functions {
		f.Align = 16
	}
	f.Analyze()
	if flags.Loops {
		for _, l := range f.Loops() {
			f.Blocks[l.Header].Align = 8
		}
	}
	if flags.Jumps || flags.Labels {
		// Jump targets: blocks reached only by explicit jumps/branches.
		for _, b := range f.Blocks {
			if len(b.Preds) == 0 {
				continue
			}
			if flags.Labels && len(b.Preds) > 1 && b.Align < 8 {
				b.Align = 8
			}
			if flags.Jumps {
				onlyJumps := true
				for _, p := range b.Preds {
					t := f.Blocks[p].Term
					if t.Kind == ir.TermFall && t.Fall == b.ID {
						onlyJumps = false
					}
					if t.Kind == ir.TermBranch && t.Fall == b.ID {
						onlyJumps = false
					}
				}
				if onlyJumps && b.Align < 8 {
					b.Align = 8
				}
			}
		}
	}
}
