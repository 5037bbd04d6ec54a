package passes

import (
	"slices"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// storedStreams collects every stream the module ever stores to; loads
// from other streams are effectively read-only, which is the alias
// knowledge gcse's load motion exploits.
func storedStreams(m *ir.Module) map[int32]bool {
	stored := map[int32]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insns {
				if b.Insns[i].Op == isa.OpStore {
					stored[b.Insns[i].Mem.Stream] = true
				}
			}
		}
	}
	return stored
}

// LICM hoists loop-invariant computations into loop preheaders. Pure
// non-memory instructions are hoisted at every optimisation level (gcc's
// always-on loop-invariant motion); invariant loads are hoisted only when
// loadMotion is enabled (gcc's -fgcse-lm, on by default, disabled by
// -fno-gcse-lm) and only from streams never stored to. Returns hoists.
func LICM(f *ir.Func, loadMotion bool, stored map[int32]bool) int {
	if f.Library {
		return 0
	}
	hoisted := 0
	loops := f.Loops()
	defIn := make([]bool, f.NextReg) // registers defined inside the loop
	// Innermost loops first so chained hoisting bubbles outward on rerun.
	for li := len(loops) - 1; li >= 0; li-- {
		l := loops[li]
		if l.Preheader < 0 {
			continue
		}
		clear(defIn)
		for _, id := range l.Blocks {
			for i := range f.Blocks[id].Insns {
				if d := f.Blocks[id].Insns[i].Def; d != ir.RegNone {
					defIn[d] = true
				}
			}
		}
		pre := f.Blocks[l.Preheader]
		for changed := true; changed; {
			changed = false
			for _, id := range l.Blocks {
				b := f.Blocks[id]
				kept := b.Insns[:0]
				for i := range b.Insns {
					in := b.Insns[i]
					if !invariant(&in, defIn, loadMotion, stored) {
						kept = append(kept, in)
						continue
					}
					pre.Insns = append(pre.Insns, in)
					defIn[in.Def] = false
					hoisted++
					changed = true
				}
				b.Insns = kept
			}
		}
	}
	return hoisted
}

// invariant reports whether the instruction may be hoisted out of a loop
// whose internally-defined registers are defIn.
func invariant(in *ir.Insn, defIn []bool, loadMotion bool, stored map[int32]bool) bool {
	if in.Def == ir.RegNone || in.HasFlag(ir.FlagMerge) {
		return false
	}
	switch in.Op {
	case isa.OpALU, isa.OpMul, isa.OpMac, isa.OpShift, isa.OpMove:
		// pure: hoistable (speculation of pure code is safe)
	case isa.OpLoad:
		if !loadMotion {
			return false
		}
		// Only loads whose address is fully captured by their operands
		// can move: indexed read-only tables, and scalars that nothing
		// stores to. Streaming loads (seq/strided/random/pointer)
		// advance through memory and are never invariant.
		switch in.Mem.Kind {
		case ir.MemTable:
			if !in.Mem.ReadOnly {
				return false
			}
		case ir.MemScalar:
			if stored[in.Mem.Stream] {
				return false
			}
		default:
			return false
		}
	default:
		return false
	}
	for _, u := range in.Use {
		if u != ir.RegNone && defIn[u] {
			return false
		}
	}
	return true
}

// StoreMotion performs gcc's -fgcse-sm: a scalar location loaded and stored
// on every iteration of a loop is promoted to a register; one load is
// placed in the preheader and one store on the unique exit. Returns the
// number of promoted locations.
func StoreMotion(f *ir.Func) int {
	if f.Library {
		return 0
	}
	promoted := 0
	for _, l := range f.Loops() {
		if l.Preheader < 0 {
			continue
		}
		exit, ok := uniqueExit(f, l)
		if !ok {
			continue
		}
		// Find scalar streams with exactly one store in the loop and no
		// calls anywhere in the loop (a callee could alias the scalar).
		type access struct {
			stores, loads int
			storeBlk      int
			storeIdx      int
		}
		acc := map[int32]*access{}
		callsInLoop := false
		for _, id := range l.Blocks {
			for i := range f.Blocks[id].Insns {
				in := &f.Blocks[id].Insns[i]
				if in.Op == isa.OpCall {
					callsInLoop = true
				}
				if in.Mem.Kind != ir.MemScalar {
					continue
				}
				a := acc[in.Mem.Stream]
				if a == nil {
					a = &access{}
					acc[in.Mem.Stream] = a
				}
				if in.Op == isa.OpStore {
					a.stores++
					a.storeBlk = id
					a.storeIdx = i
				} else if in.Op == isa.OpLoad {
					a.loads++
				}
			}
		}
		if callsInLoop {
			continue
		}
		streams := make([]int32, 0, len(acc))
		for s := range acc {
			streams = append(streams, s)
		}
		slices.Sort(streams)
		for _, stream := range streams {
			a := acc[stream]
			if a.stores != 1 {
				continue
			}
			st := f.Blocks[a.storeBlk].Insns[a.storeIdx]
			if st.Op != isa.OpStore {
				continue // shifted by a previous promotion in this loop
			}
			reg := f.NewReg()
			mem := st.Mem
			// Preheader: reg <- load [scalar].
			pre := f.Blocks[l.Preheader]
			pre.Insns = append(pre.Insns, ir.Insn{
				Op: isa.OpLoad, Def: reg, Mem: mem, Flags: ir.FlagMerge,
			})
			// In-loop store becomes a register move; loads become moves.
			for _, id := range l.Blocks {
				b := f.Blocks[id]
				for i := range b.Insns {
					in := &b.Insns[i]
					if in.Mem.Kind != ir.MemScalar || in.Mem.Stream != stream {
						continue
					}
					switch in.Op {
					case isa.OpStore:
						*in = ir.Insn{Op: isa.OpMove, Def: reg,
							Use: [2]ir.Reg{in.Use[0]}, Flags: ir.FlagMerge}
					case isa.OpLoad:
						*in = ir.Insn{Op: isa.OpMove, Def: in.Def,
							Use: [2]ir.Reg{reg}, Flags: in.Flags}
					}
				}
			}
			// Exit: store reg back. Prepend so it precedes exit code.
			eb := f.Blocks[exit]
			eb.Insns = append([]ir.Insn{{
				Op: isa.OpStore, Use: [2]ir.Reg{reg}, Mem: mem,
			}}, eb.Insns...)
			promoted++
		}
	}
	return promoted
}

// uniqueExit returns the single out-of-loop successor block reached from
// the loop, provided all its predecessors are loop blocks.
func uniqueExit(f *ir.Func, l *ir.Loop) (int, bool) {
	inLoop := make([]bool, len(f.Blocks))
	for _, id := range l.Blocks {
		inLoop[id] = true
	}
	exit := -1
	var succs [2]int
	for _, id := range l.Blocks {
		for _, s := range f.Blocks[id].Succs(succs[:0]) {
			if inLoop[s] {
				continue
			}
			if exit != -1 && exit != s {
				return -1, false
			}
			exit = s
		}
	}
	if exit == -1 {
		return -1, false
	}
	for _, p := range f.Blocks[exit].Preds {
		if !inLoop[p] {
			return -1, false
		}
	}
	return exit, true
}
