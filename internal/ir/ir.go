// Package ir defines the intermediate representation of the portable
// compiler: modules of functions, functions of basic blocks, blocks of
// straight-line instructions with an explicit terminator.
//
// The IR is a conventional flat CFG. Virtual registers follow a
// "mostly single definition" convention: every register has one defining
// instruction except registers explicitly marked as merge registers
// (loop induction variables and accumulators), which may be redefined.
// The verifier (verify.go) enforces the convention; the global
// optimisation passes rely on it.
package ir

import (
	"fmt"
	"strings"

	"portcc/internal/isa"
)

// Reg names a virtual register. RegNone (0) means "no register".
// After register allocation, values 1..isa.NumRegs denote physical
// registers.
type Reg int32

// RegNone is the absent register.
const RegNone Reg = 0

// Flags carries per-instruction semantic hints set by the program builder
// and consumed by optimisation passes.
type Flags uint16

const (
	// FlagInduction marks the update of a loop induction variable.
	FlagInduction Flags = 1 << iota
	// FlagGuard marks a comparison that feeds a provably-redundant guard
	// branch; value-range propagation may delete it.
	FlagGuard
	// FlagMulByIndex marks a multiplication by a loop induction variable;
	// strength reduction can rewrite it as an incremental add.
	FlagMulByIndex
	// FlagAddrCalc marks an address computation feeding a memory access.
	FlagAddrCalc
	// FlagMerge marks an instruction that redefines a merge register
	// (induction variable or accumulator).
	FlagMerge
	// FlagSpill marks spill code inserted by the register allocator.
	FlagSpill
	// FlagSave marks caller-save/restore code around calls.
	FlagSave
	// FlagPrologue marks function prologue/epilogue code.
	FlagPrologue
	// FlagTailCall marks a call converted to a tail call by the
	// sibling-call optimisation: control does not return to the caller.
	FlagTailCall
)

// MemKind classifies the address stream of a memory instruction. The trace
// generator synthesises concrete addresses per stream according to the kind.
type MemKind uint8

const (
	// MemNone means the instruction is not a memory access.
	MemNone MemKind = iota
	// MemSeq walks an array sequentially with the given stride.
	MemSeq
	// MemStrided walks an array with a large, fixed stride (column walks).
	MemStrided
	// MemRandom touches uniformly random addresses within the working set.
	MemRandom
	// MemPointer models pointer chasing: random within the working set,
	// with the next address dependent on the loaded value.
	MemPointer
	// MemTable reads a read-only lookup table at data-dependent offsets.
	MemTable
	// MemStack touches the small, hot stack frame.
	MemStack
	// MemScalar always touches the same address (an in-memory scalar,
	// promotable to a register by store motion).
	MemScalar
)

var memKindNames = [...]string{
	"none", "seq", "strided", "random", "pointer", "table", "stack", "scalar",
}

// String returns the lower-case stream-kind name.
func (k MemKind) String() string {
	if int(k) < len(memKindNames) {
		return memKindNames[k]
	}
	return fmt.Sprintf("memkind(%d)", uint8(k))
}

// MemRef describes the address stream of a load or store.
type MemRef struct {
	// Stream identifies the address stream; accesses with the same stream
	// id within a program share a cursor and an address region.
	Stream int32
	// Kind selects the address pattern.
	Kind MemKind
	// WSet is the working-set size in bytes for the stream.
	WSet int32
	// Stride is the per-access stride in bytes for Seq/Strided streams.
	Stride int32
	// ReadOnly marks streams that are never stored to (lookup tables);
	// loads from them are pure and eligible for motion.
	ReadOnly bool
}

// Insn is a single IR instruction. Control transfer lives in the block
// terminator, not here; OpCall is the only inter-procedural instruction.
type Insn struct {
	Op     isa.Op
	Def    Reg    // defined register, RegNone if none
	Use    [2]Reg // used registers, RegNone-padded
	Imm    int32  // immediate operand (also spill slot for FlagSpill)
	Mem    MemRef // memory stream for loads/stores
	Callee int32  // callee function index for OpCall, else -1
	Flags  Flags
}

// HasFlag reports whether the instruction carries the given hint flag.
func (in *Insn) HasFlag(f Flags) bool { return in.Flags&f != 0 }

// IsPure reports whether the instruction computes a value from its operands
// only, so recomputation is always legal. Loads are pure only from read-only
// streams.
func (in *Insn) IsPure() bool {
	switch in.Op {
	case isa.OpALU, isa.OpMul, isa.OpMac, isa.OpShift, isa.OpMove:
		return true
	case isa.OpLoad:
		return in.Mem.ReadOnly
	}
	return false
}

// String formats the instruction for dumps and tests.
func (in *Insn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", in.Op)
	if in.Def != RegNone {
		fmt.Fprintf(&b, " v%d =", in.Def)
	}
	for _, u := range in.Use {
		if u != RegNone {
			fmt.Fprintf(&b, " v%d", u)
		}
	}
	if in.Imm != 0 {
		fmt.Fprintf(&b, " #%d", in.Imm)
	}
	if in.Op.IsMem() {
		fmt.Fprintf(&b, " [%s s%d ws=%d]", in.Mem.Kind, in.Mem.Stream, in.Mem.WSet)
	}
	if in.Op == isa.OpCall {
		fmt.Fprintf(&b, " f%d", in.Callee)
	}
	return b.String()
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermFall falls through to Fall.
	TermFall TermKind = iota
	// TermJump jumps unconditionally to Taken.
	TermJump
	// TermBranch branches to Taken with probability Prob, else to Fall.
	TermBranch
	// TermRet returns from the function.
	TermRet
)

var termNames = [...]string{"fall", "jump", "branch", "ret"}

// String returns the terminator-kind name.
func (k TermKind) String() string {
	if int(k) < len(termNames) {
		return termNames[k]
	}
	return fmt.Sprintf("term(%d)", uint8(k))
}

// Term is a block terminator. Conditional branches carry profile
// information used both by layout passes and by the trace generator.
type Term struct {
	Kind  TermKind
	Taken int // target block ID for Jump/Branch
	Fall  int // fall-through block ID for Fall/Branch

	// Prob is the probability the branch is taken (Branch only).
	Prob float64
	// Trip, when positive, makes the branch a counted-loop latch: the
	// deterministic outcome pattern is taken Trip-1 times, then not taken
	// (or the reverse when the back edge is the taken edge).
	Trip int32
	// CondReg is the register holding the branch condition, defined by a
	// comparison in this block; RegNone when the condition is synthetic.
	CondReg Reg
	// Guard marks a branch whose outcome is provably constant
	// (Prob is 0 or 1); value-range propagation may remove it.
	Guard bool
	// InvariantIn, when positive, is the loop header block ID of a loop
	// within which this branch's condition is invariant; loop unswitching
	// may hoist it. Zero or negative when not applicable (a loop header
	// can never be block 0, the function entry).
	InvariantIn int
	// Site is a stable identity for the branch assigned by the program
	// builder and preserved through cloning passes. The trace generator
	// derives probabilistic outcomes by hashing (seed, Site, execution
	// index), so branch outcome sequences are identical across different
	// compilations of the same program - the foundation of fair
	// cross-optimisation comparisons.
	Site int32
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	ID    int
	Insns []Insn
	Term  Term

	// Align is the byte alignment requested by alignment passes,
	// honoured by the code generator (0 or a power of two).
	Align int

	// Preds caches predecessor block IDs; valid after Func.Analyze.
	Preds []int
	// LoopDepth caches the loop nesting depth; valid after Func.Analyze.
	LoopDepth int
}

// Succs appends the successor block IDs of b to dst and returns it.
func (b *Block) Succs(dst []int) []int {
	switch b.Term.Kind {
	case TermFall:
		dst = append(dst, b.Term.Fall)
	case TermJump:
		dst = append(dst, b.Term.Taken)
	case TermBranch:
		dst = append(dst, b.Term.Taken, b.Term.Fall)
	}
	return dst
}

// NumSuccs returns the number of successors.
func (b *Block) NumSuccs() int {
	switch b.Term.Kind {
	case TermFall, TermJump:
		return 1
	case TermBranch:
		return 2
	}
	return 0
}

// Func is a single function: a CFG whose entry is Blocks[0].
type Func struct {
	Name string
	ID   int
	// Blocks holds the function body; Blocks[0] is the entry block.
	// Block IDs index this slice.
	Blocks []*Block
	// NextReg is the next unused virtual register id.
	NextReg Reg
	// Library marks opaque library code: optimisation passes must leave
	// it untouched (it models pre-compiled libc/libm the compiler cannot
	// see, as for the paper's "library-bound" benchmarks).
	Library bool
	// FrameSize is the stack frame size in bytes after register
	// allocation (spill slots + saved registers).
	FrameSize int32
	// Layout gives block IDs in emission order; nil means natural order.
	// The block-reordering pass rewrites it; the code generator follows it.
	Layout []int
	// Align is the byte alignment of the function entry requested by
	// falign_functions (0 = none).
	Align int

	// Analysis caches, valid after Analyze until the next CFG change.
	analysis *analysis
}

// NewReg returns a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := f.NextReg
	f.NextReg++
	return r
}

// Invalidate drops cached analyses after a change to the CFG: a
// terminator's kind or targets, or the block list. Instruction-only
// changes leave them valid (see Analyze).
func (f *Func) Invalidate() { f.analysis = nil }

// Size returns the static instruction count of the function including
// terminator control instructions as emitted by the code generator.
func (f *Func) Size() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insns)
		switch b.Term.Kind {
		case TermJump, TermBranch, TermRet:
			n++
		}
	}
	return n
}

// Module is a whole program: a set of functions with a designated entry.
type Module struct {
	Name  string
	Funcs []*Func
	// Entry is the index of the entry function in Funcs.
	Entry int
}

// Size returns the static instruction count of the module.
func (m *Module) Size() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.Size()
	}
	return n
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// String dumps the module in a stable textual form used by tests.
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (entry f%d)\n", m.Name, m.Entry)
	for _, f := range m.Funcs {
		lib := ""
		if f.Library {
			lib = " [library]"
		}
		fmt.Fprintf(&b, "func f%d %s%s\n", f.ID, f.Name, lib)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "  b%d:\n", blk.ID)
			for i := range blk.Insns {
				fmt.Fprintf(&b, "    %s\n", blk.Insns[i].String())
			}
			t := blk.Term
			switch t.Kind {
			case TermFall:
				fmt.Fprintf(&b, "    fall b%d\n", t.Fall)
			case TermJump:
				fmt.Fprintf(&b, "    jump b%d\n", t.Taken)
			case TermBranch:
				fmt.Fprintf(&b, "    branch b%d else b%d p=%.2f trip=%d\n",
					t.Taken, t.Fall, t.Prob, t.Trip)
			case TermRet:
				fmt.Fprintf(&b, "    ret\n")
			}
		}
	}
	return b.String()
}
