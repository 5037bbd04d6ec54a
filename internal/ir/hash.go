package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// AppendModule appends a canonical serialisation of the module - every
// exported field of Module, Func, Block, Term, Insn and MemRef, slices
// length-prefixed, floats as IEEE bits - to dst and returns it. It is
// the module's identity for persistent caches (String is a debugging
// dump that rounds probabilities and omits stream geometry), so a field
// added to any of those types must be added here: TestHashCoversFields
// fails until it is.
func AppendModule(dst []byte, m *Module) []byte {
	u32 := func(v uint32) { dst = binary.LittleEndian.AppendUint32(dst, v) }
	i64 := func(v int) { dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v))) }
	str := func(s string) {
		i64(len(s))
		dst = append(dst, s...)
	}
	flag := func(b bool) {
		if b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	ints := func(s []int) {
		i64(len(s))
		for _, v := range s {
			i64(v)
		}
	}
	str(m.Name)
	i64(m.Entry)
	i64(len(m.Funcs))
	for _, f := range m.Funcs {
		str(f.Name)
		i64(f.ID)
		u32(uint32(f.NextReg))
		flag(f.Library)
		u32(uint32(f.FrameSize))
		ints(f.Layout)
		i64(f.Align)
		i64(len(f.Blocks))
		for _, b := range f.Blocks {
			i64(b.ID)
			i64(b.Align)
			ints(b.Preds)
			i64(b.LoopDepth)
			t := &b.Term
			dst = append(dst, byte(t.Kind))
			i64(t.Taken)
			i64(t.Fall)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Prob))
			u32(uint32(t.Trip))
			u32(uint32(t.CondReg))
			flag(t.Guard)
			i64(t.InvariantIn)
			u32(uint32(t.Site))
			i64(len(b.Insns))
			for i := range b.Insns {
				in := &b.Insns[i]
				u32(uint32(in.Op)<<16 | uint32(in.Flags))
				u32(uint32(in.Def))
				u32(uint32(in.Use[0]))
				u32(uint32(in.Use[1]))
				u32(uint32(in.Imm))
				u32(uint32(in.Callee))
				u32(uint32(in.Mem.Stream))
				dst = append(dst, byte(in.Mem.Kind))
				u32(uint32(in.Mem.WSet))
				u32(uint32(in.Mem.Stride))
				flag(in.Mem.ReadOnly)
			}
		}
	}
	return dst
}

// Hash is the sha256 of the module's canonical serialisation.
func (m *Module) Hash() [sha256.Size]byte {
	return sha256.Sum256(AppendModule(nil, m))
}
