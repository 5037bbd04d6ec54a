package trace_test

import (
	"reflect"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/ir"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
)

func compileO3(t *testing.T, name string) *codegen.Program {
	t.Helper()
	m := prog.MustBuild(name)
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeterminism(t *testing.T) {
	p := compileO3(t, "djpeg")
	a := trace.Generate(p, trace.Config{Runs: 2, MaxInsns: 100000, Seed: 7})
	b := trace.Generate(p, trace.Config{Runs: 2, MaxInsns: 100000, Seed: 7})
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestRunCounting(t *testing.T) {
	p := compileO3(t, "crc")
	tr := trace.Generate(p, trace.Config{Runs: 3, MaxInsns: 500000, Seed: 1})
	if tr.Runs != 3 {
		t.Errorf("completed %d runs, want 3", tr.Runs)
	}
	if tr.Truncated {
		t.Error("trace should not be truncated at this cap")
	}
	// The safety cap must truncate and mark.
	short := trace.Generate(p, trace.Config{Runs: 100, MaxInsns: 5000, Seed: 1})
	if !short.Truncated {
		t.Error("capped trace not marked truncated")
	}
}

// TestWorkEquivalenceAcrossConfigs is the fairness foundation: every
// compilation of the same program must execute the same source-level work
// (identical run counts and, for probabilistic branches, identical
// per-site outcome sequences).
func TestWorkEquivalenceAcrossConfigs(t *testing.T) {
	m := prog.MustBuild("gs")
	o3 := opt.O3()
	var o0 opt.Config
	p3, err := core.Compile(m, &o3)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := core.Compile(m, &o0)
	if err != nil {
		t.Fatal(err)
	}
	tr3 := trace.Generate(p3, trace.Config{Runs: 2, MaxInsns: 500000, Seed: 9})
	tr0 := trace.Generate(p0, trace.Config{Runs: 2, MaxInsns: 500000, Seed: 9})
	if tr3.Runs != tr0.Runs {
		t.Fatalf("run counts differ: %d vs %d", tr3.Runs, tr0.Runs)
	}
	// Same dynamic call counts: the call structure is source-level work.
	if tr3.OpCount[isa.OpCall] != tr0.OpCount[isa.OpCall] {
		t.Errorf("call counts differ: %d vs %d (branch outcomes shifted)",
			tr3.OpCount[isa.OpCall], tr0.OpCount[isa.OpCall])
	}
}

func TestCountersConsistent(t *testing.T) {
	p := compileO3(t, "susan_s")
	tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 200000, Seed: 1})
	var memOps, branches uint64
	for _, ev := range tr.Events {
		if isa.Op(ev.Op).IsMem() {
			memOps++
		}
		if ev.Flags&trace.FlagCond != 0 {
			branches++
		}
	}
	if memOps != tr.MemOps {
		t.Errorf("MemOps %d, events say %d", tr.MemOps, memOps)
	}
	if branches != tr.Branches {
		t.Errorf("Branches %d, events say %d", tr.Branches, branches)
	}
	total := uint64(0)
	for _, c := range tr.OpCount {
		total += c
	}
	if total != uint64(len(tr.Events)) {
		t.Errorf("OpCount sums to %d, want %d", total, len(tr.Events))
	}
}

func TestAddressesWithinRegions(t *testing.T) {
	p := compileO3(t, "fft")
	tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 100000, Seed: 1})
	for _, ev := range tr.Events {
		op := isa.Op(ev.Op)
		if op.IsMem() {
			if ev.Addr < trace.DataBase {
				t.Fatalf("data address %#x below trace.DataBase", ev.Addr)
			}
		} else if op != isa.OpNop && ev.PC < codegen.CodeBase {
			t.Fatalf("instruction address %#x below CodeBase", ev.PC)
		}
	}
}

func TestCountedLoopPattern(t *testing.T) {
	// A counted latch must be taken trip-1 times then exit, repeatedly.
	f := &ir.Func{Name: "main", ID: 0, NextReg: 2}
	f.Blocks = []*ir.Block{
		{ID: 0, Insns: []ir.Insn{{Op: isa.OpALU, Def: 1, Imm: 1}},
			Term: ir.Term{Kind: ir.TermFall, Fall: 1}},
		{ID: 1, Insns: []ir.Insn{{Op: isa.OpALU, Def: 1, Imm: 2, Flags: ir.FlagMerge}},
			Term: ir.Term{Kind: ir.TermBranch, Taken: 1, Fall: 2, Trip: 5, Site: 1}},
		{ID: 2, Term: ir.Term{Kind: ir.TermRet}},
	}
	m := &ir.Module{Name: "t", Funcs: []*ir.Func{f}}
	p, err := codegen.Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 1000, Seed: 1})
	taken, total := 0, 0
	for _, ev := range tr.Events {
		if ev.Flags&trace.FlagCond != 0 {
			total++
			if ev.Flags&trace.FlagTaken != 0 {
				taken++
			}
		}
	}
	if total != 5 || taken != 4 {
		t.Errorf("latch executed %d times with %d taken, want 5/4", total, taken)
	}
}

func TestStreamBases(t *testing.T) {
	if trace.StreamBase(0) != trace.DataBase {
		t.Error("stream 0 must start at trace.DataBase")
	}
	if trace.StreamBase(1)-trace.StreamBase(0) != trace.DataSpacing {
		t.Error("data streams must be trace.DataSpacing apart")
	}
	if trace.StreamBase(trace.FrameStream) != trace.FrameBase {
		t.Error("first frame stream must start at trace.FrameBase")
	}
}

func TestDependencyDistances(t *testing.T) {
	p := compileO3(t, "sha")
	tr := trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 50000, Seed: 1})
	sawLoadDep := false
	for _, ev := range tr.Events {
		if ev.DistLoad != trace.NoDist {
			sawLoadDep = true
			if ev.DistLoad == 0 {
				t.Fatal("zero dependency distance is impossible")
			}
		}
	}
	if !sawLoadDep {
		t.Error("no load-use dependencies recorded in a load-heavy program")
	}
}

// TestGenerateSizedMatchesGenerate pins sized generation for owned
// traces: bit-identical to Generate whether the hint covers the trace,
// falls short of it or is absent, and generated in place (no regrowth,
// so no spare doubling capacity held) when it covers.
func TestGenerateSizedMatchesGenerate(t *testing.T) {
	p := compileO3(t, "qsort")
	cfg := trace.Config{Runs: 2, MaxInsns: 100_000, Seed: 7}
	want := trace.Generate(p, cfg)
	for _, hint := range []int{0, len(want.Events) / 3, len(want.Events) + 64} {
		got := trace.GenerateSized(p, cfg, hint)
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("hint %d: events differ from Generate's", hint)
		}
		if hint > len(want.Events) && cap(got.Events) != hint {
			t.Errorf("hint %d: buffer regrew to %d", hint, cap(got.Events))
		}
		got.Events = want.Events
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hint %d: counters differ from Generate's", hint)
		}
	}
}
