package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/isa"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// TestPipelineRandomConfigs is the central compiler property test: for
// random points of the 39-dimensional optimisation space, compilation must
// succeed and produce a well-formed binary (physical registers only, valid
// call targets) that completes two runs of the program untruncated, and
// the simulator must retire every instruction of its trace.
func TestPipelineRandomConfigs(t *testing.T) {
	programs := []string{"rijndael_e", "search", "gs", "toast", "crc", "susan_c", "bitcnts", "fft"}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := opt.Random(rng)
		name := programs[int(pick)%len(programs)]
		m := prog.MustBuild(name)
		p, err := core.Compile(m, &cfg)
		if err != nil {
			t.Logf("%s: compile error: %v", name, err)
			return false
		}
		// Structural checks on the compiled module.
		for _, fn := range p.Module.Funcs {
			for _, b := range fn.Blocks {
				for i := range b.Insns {
					in := &b.Insns[i]
					if int(in.Def) > isa.AllocatableRegs {
						t.Logf("%s: non-physical def v%d", name, in.Def)
						return false
					}
					for _, u := range in.Use {
						if int(u) > isa.AllocatableRegs {
							t.Logf("%s: non-physical use v%d", name, u)
							return false
						}
					}
					if in.Op == isa.OpCall &&
						(in.Callee < 0 || int(in.Callee) >= len(p.Module.Funcs)) {
						return false
					}
				}
			}
		}
		// Two complete runs, and a simulation that retires them.
		tr := trace.Generate(p, trace.Config{Runs: 2, MaxInsns: 400000, Seed: 5})
		if tr.Runs != 2 || tr.Truncated {
			t.Logf("%s: %d runs, truncated=%v", name, tr.Runs, tr.Truncated)
			return false
		}
		r := cpu.Simulate(tr, uarch.XScale())
		return r.Cycles > 0 && r.Insns == uint64(tr.Insns())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompileDeterminism: the same module and config must produce the
// identical binary every time (the foundation of the dataset's validity).
func TestCompileDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5; i++ {
		cfg := opt.Random(rng)
		m := prog.MustBuild("madplay")
		p1, err1 := core.Compile(m, &cfg)
		p2, err2 := core.Compile(m, &cfg)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if p1.TotalBytes != p2.TotalBytes {
			t.Fatalf("config %d: sizes differ %d vs %d", i, p1.TotalBytes, p2.TotalBytes)
		}
		if p1.Module.String() != p2.Module.String() {
			t.Fatalf("config %d: modules differ", i)
		}
	}
}

// TestCompileDoesNotMutateSource: the pristine module must be reusable.
func TestCompileDoesNotMutateSource(t *testing.T) {
	m := prog.MustBuild("djpeg")
	before := m.String()
	o3 := opt.O3()
	if _, err := core.Compile(m, &o3); err != nil {
		t.Fatal(err)
	}
	if m.String() != before {
		t.Fatal("Compile mutated the source module")
	}
}

// TestFlagMonotonicityAnchors checks a few flags have their designed
// first-order effects on code size.
func TestFlagMonotonicityAnchors(t *testing.T) {
	m := prog.MustBuild("bitcnts")
	size := func(mod func(*opt.Config)) int {
		c := opt.O3()
		mod(&c)
		p, err := core.Compile(m, &c)
		if err != nil {
			t.Fatal(err)
		}
		return p.TotalBytes
	}
	base := size(func(c *opt.Config) {})
	unrolled := size(func(c *opt.Config) { c.Flags[opt.FUnrollLoops] = true })
	if unrolled <= base {
		t.Errorf("unrolling must grow code: %d -> %d", base, unrolled)
	}
	noinline := size(func(c *opt.Config) { c.Flags[opt.FInlineFunctions] = false })
	if noinline >= base {
		t.Errorf("disabling inlining must shrink bitcnts: %d -> %d", base, noinline)
	}
}

func TestLibraryCodeUntouched(t *testing.T) {
	m := prog.MustBuild("qsort")
	var aggressive opt.Config
	for f := range aggressive.Flags {
		aggressive.Flags[f] = true
	}
	p, err := core.Compile(m, &aggressive)
	if err != nil {
		t.Fatal(err)
	}
	// Library function instruction counts must match an -O0 compile
	// exactly (modulo nothing: passes skip Library functions; the
	// register allocator is flag-independent for them).
	var o0 opt.Config
	p0, err := core.Compile(m, &o0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range p.Module.Funcs {
		if !f.Library {
			continue
		}
		if f.Size() != p0.Module.Funcs[i].Size() {
			t.Errorf("library function %s resized by flags: %d vs %d",
				f.Name, f.Size(), p0.Module.Funcs[i].Size())
		}
	}
}
