package codegen

import (
	"fmt"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// Data address-space carving: ordinary data streams get 1 MiB regions
// from DataBase; per-function frame streams (spill slots, register saves)
// get 4 KiB regions from FrameBase. Code lives below both, from CodeBase.
const (
	// DataBase is the base address of ordinary data streams.
	DataBase uint32 = 0x1000_0000
	// DataSpacing is the region size per ordinary stream.
	DataSpacing uint32 = 0x10_0000
	// FrameStream is the stream-ID base for per-function frame streams.
	FrameStream int32 = 1 << 20
	// FrameBase is the base address of frame streams.
	FrameBase uint32 = 0xF000_0000
	// FrameSpacing is the region size per frame stream.
	FrameSpacing uint32 = 0x1000
)

// StreamBase returns the base address of a stream's region.
func StreamBase(id int32) uint32 {
	if id >= FrameStream {
		return FrameBase + uint32(id-FrameStream)*FrameSpacing
	}
	return DataBase + uint32(id)*DataSpacing
}

// ScoreboardSize is the number of register-scoreboard entries the trace
// generator keeps: every physical register plus entry 0, "no register".
const ScoreboardSize = isa.NumRegs + 1

// scoreboardIndex folds a register onto the generator's scoreboard; 0 is
// RegNone. Pre-allocation IR (unit tests trace it) folds its virtual
// registers onto the physical file.
func scoreboardIndex(r ir.Reg) uint8 {
	i := int(r)
	if i > isa.NumRegs {
		i = 1 + (i % isa.NumRegs)
	}
	return uint8(i)
}

// AddrKind says what a micro-op's event carries in its Addr field.
type AddrKind uint8

const (
	// AddrNone: no address (non-memory, non-call instructions).
	AddrNone AddrKind = iota
	// AddrFixed: Base is the address - frame slots (spills, saves,
	// prologue stores, at their slot offset) and scalar streams.
	AddrFixed
	// AddrStream: sequential or strided, Base plus the stream cursor in
	// Slot, which steps by Stride and wraps at WSet.
	AddrStream
	// AddrHashed: random, pointer, table and stack streams, Base plus a
	// hash of (seed, Stream, the Slot's access count) within WSet.
	AddrHashed
	// AddrCallee: a call; Base is the entry address of function Callee.
	AddrCallee
)

// Uop is one body instruction decoded for the trace generator: every
// field the generator needs per dynamic instruction, resolved once at
// image-build time instead of re-derived from the IR on every execution.
type Uop struct {
	Op  isa.Op
	Lat uint8 // result latency, isa.Op.Latency
	// Use and Def are scoreboard indices (0 = none). A call's Def is 0:
	// its results are not tracked.
	Use [2]uint8
	Def uint8
	// Addr selects how the event address is formed from the fields below.
	Addr AddrKind
	// PtrLoad marks a pointer-chasing load: its address depends on the
	// previous load.
	PtrLoad bool
	// TailCall marks a call that does not return to its caller.
	TailCall bool

	Slot   int32  // dense stream cursor index (AddrStream, AddrHashed)
	Base   uint32 // region base; the whole address for AddrFixed/AddrCallee
	Stride uint32 // cursor step (AddrStream)
	WSet   uint32 // working set the cursor wraps at or the hash folds into
	Stream uint32 // stream ID the address hash mixes in (AddrHashed)
	Callee int32  // IR function index of a call
}

// decode resolves one body instruction, handing its stream a dense cursor
// index.
func (a *slotAlloc) decode(in *ir.Insn) Uop {
	u := Uop{
		Op:  in.Op,
		Lat: uint8(in.Op.Latency()),
		Use: [2]uint8{scoreboardIndex(in.Use[0]), scoreboardIndex(in.Use[1])},
	}
	if in.Op == isa.OpCall {
		u.Addr = AddrCallee
		u.Callee = in.Callee
		u.TailCall = in.HasFlag(ir.FlagTailCall)
		return u
	}
	u.Def = scoreboardIndex(in.Def)
	if !in.Op.IsMem() {
		return u
	}
	m := &in.Mem
	u.PtrLoad = m.Kind == ir.MemPointer && in.Op == isa.OpLoad
	u.Base = StreamBase(m.Stream)
	if in.HasFlag(ir.FlagSpill) || in.HasFlag(ir.FlagSave) || in.HasFlag(ir.FlagPrologue) {
		// Frame slots are deterministic: slot index in Imm.
		u.Addr = AddrFixed
		u.Base += uint32(in.Imm) * 4
		return u
	}
	u.Slot = a.stream(m.Stream)
	u.WSet = uint32(m.WSet)
	switch m.Kind {
	case ir.MemSeq, ir.MemStrided:
		u.Addr = AddrStream
		u.Stride = uint32(m.Stride)
	case ir.MemScalar:
		u.Addr = AddrFixed
	default: // MemRandom, MemPointer, MemTable, MemStack
		u.Addr = AddrHashed
		u.Stream = uint32(m.Stream)
	}
	return u
}

// resolveCallees points every call micro-op at its callee's entry, once
// all functions are placed.
func (p *Program) resolveCallees() error {
	for _, fi := range p.Funcs {
		for _, bi := range fi.Blocks {
			for i := range bi.Uops {
				u := &bi.Uops[i]
				if u.Addr != AddrCallee {
					continue
				}
				callee := p.FuncOf(int(u.Callee))
				if callee == nil {
					return fmt.Errorf("codegen: func %s: call to unknown function %d", fi.Name, u.Callee)
				}
				u.Base = callee.Addr
			}
		}
	}
	return nil
}
