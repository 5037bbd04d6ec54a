package codegen

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Fingerprint is a collision-resistant identity of a placed binary image.
// Two programs with equal fingerprints are byte-identical to the trace
// generator: every trace (and therefore every simulation result) derived
// from them is the same, so sweep evaluators deduplicate trace generation
// and replay across optimisation settings whose pipelines happened to
// produce the same code.
type Fingerprint [sha256.Size]byte

// AppendImage appends a canonical serialisation of everything the trace
// generator observes about the program - placement, padding, instruction
// streams, materialised control, branch profile metadata - to dst and
// returns it. Derived conveniences that cannot differ when the serialised
// fields agree (Pos, ByID, TotalBytes, CondSites) are omitted.
func AppendImage(dst []byte, p *Program) []byte {
	u32 := func(v uint32) {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	u32(uint32(p.Module.Entry))
	u32(uint32(len(p.Funcs)))
	for _, fi := range p.Funcs {
		u32(uint32(fi.ID))
		u32(fi.Addr)
		u32(uint32(fi.Bytes))
		u32(uint32(len(fi.Blocks)))
		for _, bi := range fi.Blocks {
			u32(uint32(bi.ID))
			u32(bi.Addr)
			u32(uint32(bi.Pad))
			u32(uint32(bi.Bytes))
			flags := uint32(bi.Term.Kind)
			if bi.Inverted {
				flags |= 1 << 8
			}
			if bi.HasJump {
				flags |= 1 << 9
			}
			if bi.IsRet {
				flags |= 1 << 10
			}
			if bi.Term.Guard {
				flags |= 1 << 11
			}
			u32(flags)
			u32(bi.BranchAddr)
			u32(bi.JumpAddr)
			u32(uint32(bi.Term.Taken))
			u32(uint32(bi.Term.Fall))
			u32(uint32(bi.Term.Trip))
			u32(uint32(bi.Term.CondReg))
			u32(uint32(bi.Term.InvariantIn))
			u32(uint32(bi.Term.Site))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(bi.Term.Prob))
			u32(uint32(len(bi.Insns)))
			for i := range bi.Insns {
				in := &bi.Insns[i]
				u32(uint32(in.Op)<<16 | uint32(in.Flags))
				u32(uint32(in.Def))
				u32(uint32(in.Use[0]))
				u32(uint32(in.Use[1]))
				u32(uint32(in.Imm))
				u32(uint32(in.Callee))
				u32(uint32(in.Mem.Stream))
				ro := uint32(0)
				if in.Mem.ReadOnly {
					ro = 1
				}
				u32(uint32(in.Mem.Kind) | ro<<8)
				u32(uint32(in.Mem.WSet))
				u32(uint32(in.Mem.Stride))
			}
		}
	}
	return dst
}

// FingerprintInto hashes the program's canonical image, reusing scratch
// as the serialisation buffer; it returns the fingerprint and the (grown)
// scratch for the caller to keep for the next call.
func FingerprintInto(p *Program, scratch []byte) (Fingerprint, []byte) {
	scratch = AppendImage(scratch[:0], p)
	return sha256.Sum256(scratch), scratch
}
