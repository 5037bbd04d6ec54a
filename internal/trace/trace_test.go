package trace_test

import (
	"math/rand"
	"reflect"
	"slices"
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
			if ev.Addr < codegen.DataBase {
				t.Fatalf("data address %#x below codegen.DataBase", ev.Addr)
			}
		} else if op != isa.OpNop && ev.PC < codegen.CodeBase {
			t.Fatalf("instruction address %#x below CodeBase", ev.PC)
		}
	}
}

// TestCodeBoundsEvents holds a trace's static bounds to its events, the
// contract the replay engine's no-eviction shortcut rests on: every PC,
// executed padding included, lies in the code range, and every
// conditional branch sits at a listed site - over every suite program
// under -O3, the all-off setting and a sampled one, and the padded loop.
func TestCodeBoundsEvents(t *testing.T) {
	check := func(what string, tr *trace.Trace) {
		t.Helper()
		c := tr.Code
		if c.Lo != codegen.CodeBase || c.Hi <= c.Lo || !slices.IsSorted(c.CondSites) {
			t.Fatalf("%s: code range [%#x, %#x), sites sorted %v", what, c.Lo, c.Hi, slices.IsSorted(c.CondSites))
		}
		for i, ev := range tr.Events {
			if ev.PC < c.Lo || ev.PC >= c.Hi {
				t.Fatalf("%s: event %d at %#x outside [%#x, %#x)", what, i, ev.PC, c.Lo, c.Hi)
			}
			if _, ok := slices.BinarySearch(c.CondSites, ev.PC); ev.Flags&trace.FlagCond != 0 && !ok {
				t.Fatalf("%s: conditional branch %d at %#x is not a listed site", what, i, ev.PC)
			}
		}
	}
	check("padded loop", trace.Generate(paddedLoop(t), trace.Config{Runs: 2, Seed: 1}))
	settings := []opt.Config{opt.O3(), {}, opt.Random(rand.New(rand.NewSource(35)))}
	for _, name := range prog.Names() {
		m := prog.MustBuild(name)
		for si := range settings {
			p, err := core.Compile(m, &settings[si])
			if err != nil {
				t.Fatal(err)
			}
			check(name, trace.Generate(p, trace.Config{Runs: 1, MaxInsns: 200_000, Seed: 7}))
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

// sameTrace fails the test unless got equals want event for event and
// counter for counter.
func sameTrace(t *testing.T, what string, got, want *trace.Trace) {
	t.Helper()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: %d events, reference has %d", what, len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d is %+v, reference has %+v", what, i, got.Events[i], want.Events[i])
		}
	}
	g, w := *got, *want
	g.Events, w.Events = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: counters\n got %+v\nwant %+v", what, g, w)
	}
}

// cutPoints returns instruction caps that end a trace at the awkward
// places: mid-body, inside alignment padding, right after a call, right
// before one, and between a conditional branch and its trailing jump
// (the one place a trace may overshoot its cap).
func cutPoints(evs []trace.Event) []int {
	var cuts []int
	body := func(op uint8) bool { return !isa.Op(op).IsControl() && isa.Op(op) != isa.OpNop }
	var call, mid, pad, pair bool
	for i := 0; i+1 < len(evs) && !(call && mid && pad && pair); i++ {
		switch op, next := isa.Op(evs[i].Op), isa.Op(evs[i+1].Op); {
		case !call && op == isa.OpCall:
			cuts, call = append(cuts, i+1, i), true
		case !mid && body(evs[i].Op) && body(evs[i+1].Op) && evs[i+1].PC == evs[i].PC+isa.InsnBytes:
			cuts, mid = append(cuts, i+1), true
		case !pad && op == isa.OpNop:
			cuts, pad = append(cuts, i+1), true
		case !pair && op == isa.OpBranch && next == isa.OpJump:
			cuts, pair = append(cuts, i+1), true
		}
	}
	return append(cuts, len(evs)/2, 1)
}

// paddedLoop is a two-function module whose loop body sits behind a
// 32-byte alignment pad entered by fall-through, and calls a leaf: every
// awkward cut - inside the pad, mid-body, at the call, in the callee,
// between branch and exit - is a few dozen events in.
func paddedLoop(t *testing.T) *codegen.Program {
	t.Helper()
	seq := ir.MemRef{Stream: 0, Kind: ir.MemSeq, WSet: 64, Stride: 4}
	f := &ir.Func{Name: "main", ID: 0, NextReg: 4}
	f.Blocks = []*ir.Block{
		{ID: 0, Insns: []ir.Insn{{Op: isa.OpALU, Def: 1, Imm: 1}},
			Term: ir.Term{Kind: ir.TermFall, Fall: 1}},
		{ID: 1, Align: 32, Insns: []ir.Insn{
			{Op: isa.OpALU, Def: 2, Use: [2]ir.Reg{1}, Imm: 2},
			{Op: isa.OpLoad, Def: 3, Use: [2]ir.Reg{2}, Mem: seq},
			{Op: isa.OpCall, Callee: 1},
			{Op: isa.OpStore, Use: [2]ir.Reg{3, 2}, Mem: seq},
		}, Term: ir.Term{Kind: ir.TermBranch, Taken: 1, Fall: 2, Trip: 3, Site: 1, CondReg: 2}},
		{ID: 2, Term: ir.Term{Kind: ir.TermRet}},
	}
	leaf := &ir.Func{Name: "leaf", ID: 1, NextReg: 2}
	leaf.Blocks = []*ir.Block{{ID: 0, Insns: []ir.Insn{{Op: isa.OpMul, Def: 1, Imm: 3}},
		Term: ir.Term{Kind: ir.TermRet}}}
	p, err := codegen.Lower(&ir.Module{Name: "padded", Funcs: []*ir.Func{f, leaf}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Funcs[0].ByID[1].Pad < 2*isa.InsnBytes {
		t.Fatalf("loop body pad is %d bytes, want several no-ops", p.Funcs[0].ByID[1].Pad)
	}
	return p
}

// TestGenerateMatchesReference holds the micro-op generator to the IR
// walk it replaced, over every suite program under -O3, the all-off
// setting and sampled settings: complete runs, fill-to-cap traces, and
// caps that cut mid-body, at a call and inside a branch-jump pair; and
// over a hand-built padded loop at every cap.
func TestGenerateMatchesReference(t *testing.T) {
	p := paddedLoop(t)
	full := generateReference(p, trace.Config{Runs: 2, Seed: 1})
	for c := 1; c <= len(full.Events)+1; c++ {
		cfg := trace.Config{Runs: 2, MaxInsns: c, Seed: 1}
		sameTrace(t, "padded loop", trace.Generate(p, cfg), generateReference(p, cfg))
	}

	rng := rand.New(rand.NewSource(5))
	settings := []opt.Config{opt.O3(), {}}
	for range 3 {
		settings = append(settings, opt.Random(rng))
	}
	for _, name := range prog.Names() {
		m := prog.MustBuild(name)
		for si := range settings {
			p, err := core.Compile(m, &settings[si])
			if err != nil {
				t.Fatal(err)
			}
			full := trace.Config{Runs: 2, MaxInsns: 400_000, Seed: 7}
			want := generateReference(p, full)
			sameTrace(t, name+" complete runs", trace.Generate(p, full), want)
			for _, c := range cutPoints(want.Events) {
				cfg := trace.Config{Runs: 2, MaxInsns: c, Seed: 7}
				sameTrace(t, name+" cut", trace.Generate(p, cfg), generateReference(p, cfg))
			}
			fill := trace.Config{MaxInsns: len(want.Events) + 999, Seed: 3}
			sameTrace(t, name+" fill", trace.Generate(p, fill), generateReference(p, fill))
		}
	}
}

// FuzzGenerateVsReference fuzzes the program, the setting, the run count
// and the cap, holding the micro-op generator to the reference walk.
func FuzzGenerateVsReference(f *testing.F) {
	f.Add(uint8(0), int64(0), uint8(2), uint32(100_000))
	f.Add(uint8(7), int64(11), uint8(1), uint32(333))
	f.Add(uint8(20), int64(-4), uint8(0), uint32(20_000))
	f.Add(uint8(33), int64(99), uint8(3), uint32(1))
	names := prog.Names()
	f.Fuzz(func(t *testing.T, pi uint8, setting int64, runs uint8, maxInsns uint32) {
		c := opt.O3()
		if setting != 0 {
			c = opt.Random(rand.New(rand.NewSource(setting)))
		}
		p, err := core.Compile(prog.MustBuild(names[int(pi)%len(names)]), &c)
		if err != nil {
			t.Fatal(err)
		}
		cfg := trace.Config{Runs: int(runs % 4), MaxInsns: 1 + int(maxInsns%200_000), Seed: setting}
		sameTrace(t, "fuzzed", trace.Generate(p, cfg), generateReference(p, cfg))
	})
}
