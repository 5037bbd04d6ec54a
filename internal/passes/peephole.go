package passes

import (
	"portcc/internal/ir"
	"portcc/internal/isa"
)

// Peephole2 runs the post-register-allocation peephole pass (gcc's
// -fpeephole2). Two patterns with real machine equivalents on ARM/XScale:
//
//   - "move r, r" deletion (coalescing residue);
//   - folding a shift into the shifted-operand field of a dependent ALU
//     instruction, deleting the standalone shift, when the shift result is
//     not needed afterwards in the block.
//
// Returns the number of instructions removed.
func Peephole2(f *ir.Func) int {
	removed := 0
	for _, b := range f.Blocks {
		removed += removeSelfMovesBlock(b)
		removed += foldShifts(f, b)
	}
	return removed
}

func removeSelfMovesBlock(b *ir.Block) int {
	removed := 0
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
	return removed
}

// foldShifts merges "shift t, x" with a following "alu d, t, y" (within a
// small window, no intervening reader/writer of t or writer of the shift
// input) when t's value dies at the ALU - i.e. t is redefined later in the
// block before any other use. This is the ARM shifted-operand encoding:
// the ALU instruction absorbs the shift for free.
func foldShifts(f *ir.Func, b *ir.Block) int {
	const window = 6
	removed := 0
	kept := b.Insns[:0]
	for i := 0; i < len(b.Insns); i++ {
		in := b.Insns[i]
		if in.Op != isa.OpShift || in.Def == ir.RegNone {
			kept = append(kept, in)
			continue
		}
		t, x := in.Def, in.Use[0]
		fold := -1
		for j := i + 1; j < len(b.Insns) && j <= i+window; j++ {
			nx := &b.Insns[j]
			usesT := nx.Use[0] == t || nx.Use[1] == t
			if usesT {
				if nx.Op == isa.OpALU && killedAfter(b, j+1, t) {
					fold = j
				}
				break
			}
			if nx.Def == t || nx.Def == x {
				break
			}
		}
		if fold < 0 {
			kept = append(kept, in)
			continue
		}
		nx := &b.Insns[fold]
		for k, u := range nx.Use {
			if u == t {
				nx.Use[k] = x
			}
		}
		removed++ // the shift disappears into the ALU operand
	}
	b.Insns = kept
	return removed
}

// killedAfter reports whether register r is redefined in block b at or
// after index from before any further use (its current value is dead).
func killedAfter(b *ir.Block, from int, r ir.Reg) bool {
	for i := from; i < len(b.Insns); i++ {
		in := &b.Insns[i]
		if in.Use[0] == r || in.Use[1] == r {
			return false
		}
		if in.Def == r {
			return true
		}
	}
	return false
}

// GCSEAfterReload removes redundant reloads of the same spill slot within
// a block (gcc's -fgcse-after-reload): a second load from a spill slot
// with no intervening store to that slot, call, or clobber of the held
// register is replaced by a register copy (or deleted when the target
// coincides). Returns the number of reloads removed.
func GCSEAfterReload(f *ir.Func) int {
	removed := 0
	for _, b := range f.Blocks {
		slotReg := map[int32]ir.Reg{} // spill slot -> register holding it
		kept := b.Insns[:0]
		for i := range b.Insns {
			in := b.Insns[i]
			isSpillStore := in.HasFlag(ir.FlagSpill) && in.Op == isa.OpStore
			isSpillLoad := in.HasFlag(ir.FlagSpill) && in.Op == isa.OpLoad
			if in.Op == isa.OpCall {
				slotReg = map[int32]ir.Reg{}
			}
			if isSpillLoad {
				if r, ok := slotReg[in.Imm]; ok {
					if r == in.Def {
						removed++ // value already in the right register
						continue
					}
					in = ir.Insn{Op: isa.OpMove, Def: in.Def,
						Use: [2]ir.Reg{r}, Imm: in.Imm, Flags: ir.FlagSpill}
					removed++
				}
			}
			// A redefinition of a holding register invalidates it.
			if in.Def != ir.RegNone {
				for slot, r := range slotReg {
					if r == in.Def {
						delete(slotReg, slot)
					}
				}
			}
			switch {
			case isSpillStore:
				slotReg[in.Imm] = in.Use[0]
			case isSpillLoad:
				slotReg[in.Imm] = in.Def
			}
			kept = append(kept, in)
		}
		b.Insns = kept
	}
	return removed
}
