// Package codegen lowers an optimised (and register-allocated) IR module to
// a binary image: blocks placed at concrete addresses following each
// function's layout order, with terminators materialised as branch/jump
// instructions and alignment padding inserted where the alignment passes
// requested it.
//
// The image is what the trace generator walks; instruction addresses drive
// the instruction-cache model, so code size, layout and padding all have
// real microarchitectural consequences.
package codegen

import (
	"fmt"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// CodeBase is the address of the first function; data streams live far
// above it (DataBase, FrameBase).
const CodeBase uint32 = 0x8000

// Program is the binary image of a module.
type Program struct {
	Module *ir.Module
	Funcs  []*FuncImage
	// TotalBytes is the overall code size including padding.
	TotalBytes int
	// PadBytes is the portion of TotalBytes that is alignment padding.
	PadBytes int
	// CondSites lists the address of every conditional branch in the
	// image, ascending: the only PCs a trace of it looks up in a BTB.
	CondSites []uint32

	// Dense cursor-index spaces, assigned at image-build time so the
	// trace generator's per-event state lookups are flat slice indexing
	// instead of map probes (see internal/trace):
	//
	// ByFuncID maps IR function ID to its image (call-target lookup).
	ByFuncID []*FuncImage
	// NumStreams counts the distinct address streams referenced by the
	// image's memory instructions; Uop.Slot indexes them.
	NumStreams int
	// NumLatchSlots counts counted-loop latch branches (one trip counter
	// each); BlockImage.LatchSlot indexes them.
	NumLatchSlots int
	// NumSiteSlots counts distinct probabilistic branch sites that keep
	// a per-execution counter; BlockImage.SiteSlot indexes them. Blocks
	// duplicated from one source site (inlining, unrolling) share a slot,
	// exactly as they shared a counter key.
	NumSiteSlots int
}

// FuncImage is a placed function.
type FuncImage struct {
	ID     int
	Name   string
	Addr   uint32
	Bytes  int
	Blocks []*BlockImage
	// ByID maps original IR block ID to its image.
	ByID []*BlockImage
}

// BlockImage is a placed basic block: the body instructions followed by any
// materialised control instructions.
type BlockImage struct {
	ID   int    // original IR block ID
	Pos  int    // layout position within FuncImage.Blocks
	Addr uint32 // address of the first instruction (after padding)
	Pad  int    // alignment padding bytes preceding the block
	// Insns is the body; control instructions are separate so the trace
	// generator can locate them.
	Insns []ir.Insn
	// Branch materialisation:
	Term ir.Term
	// BranchAddr is the address of the conditional branch instruction
	// (valid when Term.Kind == TermBranch).
	BranchAddr uint32
	// JumpAddr is the address of the trailing unconditional jump or ret,
	// 0 if the block falls through in layout.
	JumpAddr uint32
	// BranchFallsTo holds the block ID reached by *not* redirecting at the
	// branch: the layout successor. When the layout placed the taken
	// target next, the branch is inverted and Taken/Fall roles swap at
	// trace time.
	Inverted bool
	// HasJump reports whether a trailing jump was materialised.
	HasJump bool
	// IsRet reports whether the block ends the function.
	IsRet bool
	// Bytes is the total size of the block including control insns,
	// excluding padding.
	Bytes int

	// Uops parallels Insns with the body decoded for the trace generator
	// (stream cursor slots included), which walks it instead of the IR.
	Uops []Uop
	// CondUse is the scoreboard index of Term.CondReg (0 = none).
	CondUse uint8

	// Trace-generator cursor slots (see Program): LatchSlot is the dense
	// trip-counter index of a counted-latch branch, SiteSlot the dense
	// outcome-counter index of a probabilistic branch site; -1 when the
	// terminator keeps no such counter.
	LatchSlot int32
	SiteSlot  int32
}

// End returns the address just past the block's last instruction.
func (b *BlockImage) End() uint32 { return b.Addr + uint32(b.Bytes) }

// slotAlloc hands out the image's dense cursor indices in first-appearance
// order - a pure function of the placed instruction stream, so equal
// images (equal fingerprints) always carry equal slot assignments - and
// carves every block's micro-ops from one slab.
type slotAlloc struct {
	streams map[int32]int32
	sites   map[int32]int32
	latches int32
	uops    []Uop // the unused tail of the module's micro-op slab
}

func (a *slotAlloc) stream(id int32) int32 {
	if s, ok := a.streams[id]; ok {
		return s
	}
	s := int32(len(a.streams))
	a.streams[id] = s
	return s
}

func (a *slotAlloc) site(id int32) int32 {
	if s, ok := a.sites[id]; ok {
		return s
	}
	s := int32(len(a.sites))
	a.sites[id] = s
	return s
}

// Lower places every function of the module and returns the image.
// Functions are placed in module order starting at CodeBase; blocks follow
// each function's Layout (natural order when nil).
func Lower(m *ir.Module) (*Program, error) {
	p := &Program{Module: m}
	alloc := &slotAlloc{streams: map[int32]int32{}, sites: map[int32]int32{}}
	body, conds := 0, 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			body += len(b.Insns)
			if b.Term.Kind == ir.TermBranch {
				conds++
			}
		}
	}
	alloc.uops = make([]Uop, body)
	p.CondSites = make([]uint32, 0, conds)
	addr := CodeBase
	totalPad := 0
	maxID := -1
	for _, f := range m.Funcs {
		if f.Align > 0 {
			pad := padTo(addr, uint32(f.Align))
			addr += pad
			totalPad += int(pad)
		}
		fi, err := lowerFunc(f, addr, alloc)
		if err != nil {
			return nil, err
		}
		for _, bi := range fi.Blocks {
			totalPad += bi.Pad
			if bi.Term.Kind == ir.TermBranch {
				p.CondSites = append(p.CondSites, bi.BranchAddr)
			}
		}
		p.Funcs = append(p.Funcs, fi)
		if fi.ID > maxID {
			maxID = fi.ID
		}
		addr += uint32(fi.Bytes)
	}
	p.TotalBytes = int(addr - CodeBase)
	p.PadBytes = totalPad
	p.ByFuncID = make([]*FuncImage, maxID+1)
	for _, fi := range p.Funcs {
		p.ByFuncID[fi.ID] = fi
	}
	p.NumStreams = len(alloc.streams)
	p.NumLatchSlots = int(alloc.latches)
	p.NumSiteSlots = len(alloc.sites)
	if err := p.resolveCallees(); err != nil {
		return nil, err
	}
	return p, nil
}

func padTo(addr, align uint32) uint32 {
	if align == 0 {
		return 0
	}
	rem := addr & (align - 1)
	if rem == 0 {
		return 0
	}
	return align - rem
}

func lowerFunc(f *ir.Func, base uint32, alloc *slotAlloc) (*FuncImage, error) {
	layout := f.Layout
	if layout == nil {
		layout = make([]int, len(f.Blocks))
		for i := range layout {
			layout[i] = i
		}
	}
	if len(layout) != len(f.Blocks) {
		return nil, fmt.Errorf("codegen: func %s: layout has %d entries for %d blocks", f.Name, len(layout), len(f.Blocks))
	}
	if layout[0] != 0 {
		return nil, fmt.Errorf("codegen: func %s: layout must start with the entry block", f.Name)
	}
	seen := make([]bool, len(f.Blocks))
	for _, id := range layout {
		if id < 0 || id >= len(f.Blocks) || seen[id] {
			return nil, fmt.Errorf("codegen: func %s: layout is not a permutation", f.Name)
		}
		seen[id] = true
	}

	fi := &FuncImage{ID: f.ID, Name: f.Name, Addr: base}
	fi.ByID = make([]*BlockImage, len(f.Blocks))
	addr := base
	for pos, id := range layout {
		b := f.Blocks[id]
		pad := padTo(addr, uint32(b.Align))
		addr += pad
		bi := &BlockImage{ID: id, Pos: pos, Addr: addr, Pad: int(pad), Insns: b.Insns, Term: b.Term,
			CondUse: scoreboardIndex(b.Term.CondReg), LatchSlot: -1, SiteSlot: -1}
		n := len(b.Insns)
		bi.Uops, alloc.uops = alloc.uops[:n:n], alloc.uops[n:]
		for i := range b.Insns {
			bi.Uops[i] = alloc.decode(&b.Insns[i])
		}
		if b.Term.Kind == ir.TermBranch {
			switch t := b.Term; {
			case t.Trip > 0:
				bi.LatchSlot = alloc.latches
				alloc.latches++
			case t.Prob > 0 && t.Prob < 1 && t.InvariantIn <= 0:
				bi.SiteSlot = alloc.site(t.Site)
			}
		}
		next := -1
		if pos+1 < len(layout) {
			next = layout[pos+1]
		}
		bytes := len(b.Insns) * isa.InsnBytes
		switch b.Term.Kind {
		case ir.TermRet:
			bi.JumpAddr = addr + uint32(bytes)
			bi.IsRet = true
			bytes += isa.InsnBytes
		case ir.TermFall:
			if b.Term.Fall != next {
				bi.JumpAddr = addr + uint32(bytes)
				bi.HasJump = true
				bytes += isa.InsnBytes
			}
		case ir.TermJump:
			if b.Term.Taken != next {
				bi.JumpAddr = addr + uint32(bytes)
				bi.HasJump = true
				bytes += isa.InsnBytes
			}
		case ir.TermBranch:
			bi.BranchAddr = addr + uint32(bytes)
			bytes += isa.InsnBytes
			switch {
			case b.Term.Fall == next:
				// branch taken-target, fall through: nothing extra.
			case b.Term.Taken == next:
				// Invert the condition so the old taken target becomes
				// the fall-through.
				bi.Inverted = true
			default:
				// Branch plus unconditional jump to the fall target.
				bi.JumpAddr = addr + uint32(bytes)
				bi.HasJump = true
				bytes += isa.InsnBytes
			}
		}
		bi.Bytes = bytes
		addr += uint32(bytes)
		fi.Blocks = append(fi.Blocks, bi)
		fi.ByID[id] = bi
	}
	fi.Bytes = int(addr - base)
	return fi, nil
}

// FuncOf returns the function image with the given IR function index -
// a flat lookup, since the trace generator resolves every dynamic call
// through it.
func (p *Program) FuncOf(id int) *FuncImage {
	if id >= 0 && id < len(p.ByFuncID) {
		return p.ByFuncID[id]
	}
	return nil
}

// Entry returns the image of the module's entry function.
func (p *Program) Entry() *FuncImage { return p.FuncOf(p.Module.Entry) }
