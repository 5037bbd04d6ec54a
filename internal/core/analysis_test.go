package core

import (
	"math/rand"
	"reflect"
	"testing"

	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/passes"
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
// analysis: it drives the plan one step at a time, as CompilePlan does,
// over the suite and invariantLoop under -O3, the zero configuration and
// seeded settings, and after every step compares each function's cached
// analysis with a fresh one on a clone. Reading the facts caches them, so
// every step starts from a cached analysis, and a pass that changes a
// terminator or the block list without invalidating fails here even when
// no binary happens to change.
func TestCachedAnalysisMatchesFresh(t *testing.T) {
	cfgs := []opt.Config{opt.O3(), {}}
	rng := rand.New(rand.NewSource(7))
	for len(cfgs) < 8 {
		cfgs = append(cfgs, opt.Random(rng))
	}
	var ran [opt.NumPasses]bool
	mods := []*ir.Module{invariantLoop()}
	for _, name := range prog.Names() {
		mods = append(mods, prog.MustBuild(name))
	}
	for _, src := range mods {
		name := src.Name
		for ci := range cfgs {
			plan := opt.PlanFor(&cfgs[ci])
			m := src.Clone()
			check := func(s opt.Step, f *ir.Func) {
				ran[s.Pass] = true
				if cached, fresh := factsOf(f), factsOf(f.Clone()); !reflect.DeepEqual(cached, fresh) {
					t.Fatalf("%s under %s, %s after %v: cached analysis\n%+v\nfresh\n%+v",
						name, cfgs[ci].Key(), f.Name, s.Pass, cached, fresh)
				}
			}
			for _, f := range m.Funcs {
				f.Analyze()
			}
			for _, s := range plan.Mod {
				applyModStep(s, m)
				for _, f := range m.Funcs {
					check(s, f)
				}
			}
			stored := passes.StoredStreams(m)
			run := func(f *ir.Func, steps ...opt.Step) {
				for _, s := range steps {
					applyFuncStep(s, f, stored)
					check(s, f)
				}
			}
			for _, f := range m.Funcs {
				if !f.Library {
					run(f, plan.Fn...)
				}
			}
			for _, f := range m.Funcs {
				if f.Library {
					run(f, opt.Step{Pass: opt.PassAlloc})
				} else {
					run(f, plan.Alloc)
				}
			}
			for _, f := range m.Funcs {
				if !f.Library {
					run(f, plan.Post...)
				}
			}
		}
	}
	for p, ok := range ran {
		if !ok {
			t.Errorf("no setting ran %v", opt.Pass(p))
		}
	}
}
