package codegen

import (
	"testing"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

func twoBlockFunc() *ir.Func {
	f := &ir.Func{Name: "f", ID: 0, NextReg: 3}
	f.Blocks = []*ir.Block{
		{ID: 0, Insns: []ir.Insn{{Op: isa.OpALU, Def: 1, Imm: 1}},
			Term: ir.Term{Kind: ir.TermFall, Fall: 1}},
		{ID: 1, Insns: []ir.Insn{{Op: isa.OpALU, Def: 2, Imm: 2}},
			Term: ir.Term{Kind: ir.TermRet}},
	}
	return f
}

func TestFallthroughElision(t *testing.T) {
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{twoBlockFunc()}}
	p, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	b0 := p.Funcs[0].Blocks[0]
	if b0.HasJump {
		t.Error("fall-through to the next block must not materialise a jump")
	}
	// 1 insn + 1 insn + ret = 12 bytes.
	if p.TotalBytes != 3*isa.InsnBytes {
		t.Errorf("code size %d, want %d", p.TotalBytes, 3*isa.InsnBytes)
	}
}

func TestLayoutForcesJump(t *testing.T) {
	f := twoBlockFunc()
	f.Blocks = append(f.Blocks, &ir.Block{ID: 2, Term: ir.Term{Kind: ir.TermRet}})
	f.Blocks[0].Term = ir.Term{Kind: ir.TermFall, Fall: 1}
	f.Layout = []int{0, 2, 1} // block 1 no longer adjacent
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{f}}
	p, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Funcs[0].ByID[0].HasJump {
		t.Error("displaced fall-through must become a jump")
	}
}

func TestBranchInversion(t *testing.T) {
	f := &ir.Func{Name: "f", ID: 0, NextReg: 2}
	f.Blocks = []*ir.Block{
		{ID: 0, Term: ir.Term{Kind: ir.TermBranch, Taken: 1, Fall: 2, Prob: 0.9}},
		{ID: 1, Term: ir.Term{Kind: ir.TermRet}},
		{ID: 2, Term: ir.Term{Kind: ir.TermRet}},
	}
	// Layout putting the taken target next: the branch must invert.
	f.Layout = []int{0, 1, 2}
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{f}}
	p, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	bi := p.Funcs[0].ByID[0]
	if !bi.Inverted {
		t.Error("branch with taken target adjacent must be inverted")
	}
	if bi.HasJump {
		t.Error("inverted branch needs no extra jump")
	}
	// Neither target adjacent: branch + jump.
	f2 := &ir.Func{Name: "g", ID: 0, NextReg: 2}
	f2.Blocks = []*ir.Block{
		{ID: 0, Term: ir.Term{Kind: ir.TermBranch, Taken: 2, Fall: 1, Prob: 0.5}},
		{ID: 1, Term: ir.Term{Kind: ir.TermRet}},
		{ID: 2, Term: ir.Term{Kind: ir.TermRet}},
		{ID: 3, Term: ir.Term{Kind: ir.TermRet}},
	}
	f2.Layout = []int{0, 3, 1, 2} // both branch targets displaced
	m2 := &ir.Module{Name: "m2", Funcs: []*ir.Func{f2}}
	p2, err := Lower(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Funcs[0].ByID[0].HasJump {
		t.Error("branch with both targets displaced needs a jump")
	}
}

func TestAlignmentPadding(t *testing.T) {
	f := twoBlockFunc()
	f.Blocks[1].Align = 16
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{f}}
	p, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	b1 := p.Funcs[0].ByID[1]
	if b1.Addr%16 != 0 {
		t.Errorf("aligned block at %#x, not 16-byte aligned", b1.Addr)
	}
	if p.PadBytes == 0 {
		t.Error("padding not accounted")
	}
}

func TestLayoutValidation(t *testing.T) {
	f := twoBlockFunc()
	f.Layout = []int{1, 0} // entry not first
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{f}}
	if _, err := Lower(m); err == nil {
		t.Error("layout not starting at entry accepted")
	}
	f.Layout = []int{0, 0} // not a permutation
	if _, err := Lower(m); err == nil {
		t.Error("non-permutation layout accepted")
	}
	f.Layout = []int{0} // missing block
	if _, err := Lower(m); err == nil {
		t.Error("short layout accepted")
	}
}

func TestAddressesMonotonic(t *testing.T) {
	f := twoBlockFunc()
	m := &ir.Module{Name: "m", Funcs: []*ir.Func{f, twoBlockFunc()}}
	m.Funcs[1].ID = 1
	m.Funcs[1].Name = "g"
	p, err := Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	last := uint32(0)
	for _, fi := range p.Funcs {
		for _, bi := range fi.Blocks {
			if bi.Addr < last {
				t.Fatal("block addresses not monotonically increasing")
			}
			last = bi.End()
		}
	}
	if p.Funcs[0].Addr != CodeBase {
		t.Errorf("first function at %#x, want CodeBase %#x", p.Funcs[0].Addr, CodeBase)
	}
}

func TestStreamBases(t *testing.T) {
	if StreamBase(0) != DataBase {
		t.Error("stream 0 must start at DataBase")
	}
	if StreamBase(1)-StreamBase(0) != DataSpacing {
		t.Error("data streams must be DataSpacing apart")
	}
	if StreamBase(FrameStream) != FrameBase {
		t.Error("first frame stream must start at FrameBase")
	}
}
