package core

import (
	"math/rand"
	"reflect"
	"testing"

	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/prog"
)

// cfgFacts is everything ir.Func.Analyze derives: reverse postorder,
// each block's predecessors, immediate dominator and loop depth, and the
// loops with their blocks, preheader, parent and depth.
type cfgFacts struct {
	RPO   []int
	Preds [][]int
	Idom  []int
	Depth []int
	Loops []ir.Loop
}

// factsOf reads f's analysis, computing it only if none is cached.
func factsOf(f *ir.Func) cfgFacts {
	c := cfgFacts{RPO: append([]int{}, f.RPO()...)}
	for _, b := range f.Blocks {
		c.Preds = append(c.Preds, append([]int{}, b.Preds...))
		c.Idom = append(c.Idom, f.Idom(b.ID))
		c.Depth = append(c.Depth, b.LoopDepth)
	}
	for _, l := range f.Loops() {
		c.Loops = append(c.Loops, *l)
	}
	return c
}

// invariantLoop is what no suite program builds, a loop around a
// loop-invariant branch, so that unswitching runs too.
func invariantLoop() *ir.Module {
	b := prog.NewB("invariant", 1)
	b.Func("main")
	b.Loop(16)
	b.ALU(3)
	b.InvIf(0.5)
	b.ALU(2)
	b.Else()
	b.Shift(1)
	b.EndIf()
	b.ALU(2)
	b.End()
	b.Ret()
	return b.MustBuild()
}

// TestCachedAnalysisMatchesFresh holds the invalidation rule of
// ir.Func.Analyze, which lets instruction-only passes keep the CFG
// analysis: it runs the pipeline over the suite and invariantLoop under
// -O3, the zero configuration and seeded settings, and after every pass
// application compares the cached analysis of each function the pass may
// have changed with a fresh one on a clone. Reading the facts caches them,
// so every pass starts from a cached analysis, and a pass that changes a
// terminator or the block list without invalidating fails here even when
// no binary happens to change.
func TestCachedAnalysisMatchesFresh(t *testing.T) {
	cfgs := []opt.Config{opt.O3(), {}}
	rng := rand.New(rand.NewSource(7))
	for len(cfgs) < 8 {
		cfgs = append(cfgs, opt.Random(rng))
	}
	ran := map[string]bool{}
	mods := []*ir.Module{invariantLoop()}
	for _, name := range prog.Names() {
		mods = append(mods, prog.MustBuild(name))
	}
	for _, src := range mods {
		for ci := range cfgs {
			m := src.Clone()
			for _, f := range m.Funcs {
				f.Analyze()
			}
			pipeline(m, &cfgs[ci], func(pass string, f *ir.Func) {
				ran[pass] = true
				if cached, fresh := factsOf(f), factsOf(f.Clone()); !reflect.DeepEqual(cached, fresh) {
					t.Fatalf("%s under %s, %s after %s: cached analysis\n%+v\nfresh\n%+v",
						src.Name, cfgs[ci].Key(), f.Name, pass, cached, fresh)
				}
			})
		}
	}
	// Every pass the pipeline reports to its hook.
	passes := []string{
		"inline", "sibling", "vrp", "cse", "pre", "gcse", "gcse_las",
		"store_motion", "licm", "unswitch", "strength_reduce", "unroll",
		"regmove", "thread_jumps", "dead_code", "schedule", "reorder_blocks",
		"align", "alloc", "gcse_reload", "peephole2", "crossjump",
	}
	for _, p := range passes {
		if !ran[p] {
			t.Errorf("no setting ran %s", p)
		}
	}
	if len(ran) != len(passes) {
		t.Errorf("the pipeline reported %d distinct passes, want %d", len(ran), len(passes))
	}
}

// TestIRVerifiesAcrossPreRAPipeline runs the pipeline over the suite
// under -O3, the zero configuration and seeded settings, and verifies
// the whole module after every pass application before allocation (from
// allocation on, physical registers legitimately break single
// definition). A pass that leaves a branch to a removed block, a use of
// an undefined register or a recursive call graph fails here, at the
// pass that did it.
func TestIRVerifiesAcrossPreRAPipeline(t *testing.T) {
	cfgs := []opt.Config{opt.O3(), {}}
	rng := rand.New(rand.NewSource(11))
	for len(cfgs) < 26 {
		cfgs = append(cfgs, opt.Random(rng))
	}
	verified := 0
	for _, name := range prog.Names() {
		src := prog.MustBuild(name)
		if err := src.Verify(); err != nil {
			t.Fatalf("%s: built module invalid: %v", name, err)
		}
		for ci := range cfgs {
			m, allocated := src.Clone(), false
			pipeline(m, &cfgs[ci], func(pass string, f *ir.Func) {
				if allocated = allocated || pass == "alloc"; allocated {
					return
				}
				verified++
				if err := m.Verify(); err != nil {
					t.Fatalf("%s under %s, %s after %s: %v", name, cfgs[ci].Key(), f.Name, pass, err)
				}
			})
		}
	}
	if verified == 0 {
		t.Fatal("no pass application was verified")
	}
}
