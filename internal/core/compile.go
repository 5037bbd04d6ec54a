// Package core assembles the portable optimising compiler of the paper's
// Figure 2: the pass pipeline driven by an optimisation configuration
// (compile.go, and batch.go's loop of it over a sweep's settings) and the
// deployment path that takes a program source, one profile run's
// performance counters and a microarchitecture description and produces a
// binary optimised by the learned model (compiler.go).
package core

import (
	"fmt"

	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/passes"
	"portcc/internal/regalloc"
)

// Version is the code-generation version of this compiler: any change
// that alters the binary image a given (module, configuration) pair
// compiles to - a pass, the plan derivation, allocation, lowering,
// placement, or the image serialisation the fingerprint hashes - must
// bump it. The result store's compile index keys on it, so fingerprints
// recorded by an older compiler are clean misses instead of stale
// identities; TestVersionsPinBehaviour (internal/dataset) holds the
// constant to the binaries the suite actually compiles to.
const Version = 1

// Compile clones the module and runs the full pipeline - pre-allocation
// optimisation passes selected by cfg, register allocation, post-allocation
// cleanups, placement - and returns the binary image.
//
// The pass order mirrors gcc 4.2: interprocedural (inlining) first, then
// scalar and loop optimisation, scheduling, allocation, and post-reload
// cleanup. The pipeline is materialised as a canonical opt.Plan and
// interpreted step by step; this is the only interpreter of a plan.
func Compile(src *ir.Module, cfg *opt.Config) (*codegen.Program, error) {
	plan := opt.PlanFor(cfg)
	return CompilePlan(src, &plan)
}

// CompilePlan compiles the module under an already-derived canonical plan,
// linearly: module steps, then per function the optimisation sequence,
// then allocation for every function, then post-reload cleanups.
func CompilePlan(src *ir.Module, plan *opt.Plan) (*codegen.Program, error) {
	m := src.Clone()
	for _, s := range plan.Mod {
		applyModStep(s, m)
	}
	stored := passes.StoredStreams(m)
	for _, f := range m.Funcs {
		if f.Library {
			continue
		}
		for _, s := range plan.Fn {
			applyFuncStep(s, f, stored)
		}
	}
	alloc := plan.Alloc
	for _, f := range m.Funcs {
		if f.Library {
			applyFuncStep(opt.Step{Pass: opt.PassAlloc}, f, stored)
		} else {
			applyFuncStep(alloc, f, stored)
		}
	}
	for _, f := range m.Funcs {
		if f.Library {
			continue
		}
		for _, s := range plan.Post {
			applyFuncStep(s, f, stored)
		}
	}
	return codegen.Lower(m)
}

// applyModStep executes one module-level plan step in place.
func applyModStep(s opt.Step, m *ir.Module) {
	switch s.Pass {
	case opt.PassInline:
		passes.Inline(m, passes.InlineParams{
			MaxInsnsAuto:        int(s.Args[0]),
			LargeFunctionInsns:  int(s.Args[1]),
			LargeFunctionGrowth: int(s.Args[2]),
			LargeUnitInsns:      int(s.Args[3]),
			UnitGrowth:          int(s.Args[4]),
			CallCost:            int(s.Args[5]),
		})
	case opt.PassSibling:
		passes.SiblingCalls(m)
	default:
		panic(fmt.Sprintf("core: %v is not a module step", s.Pass))
	}
}

// applyFuncStep executes one per-function plan step in place. stored is
// the module-wide stored-streams analysis computed after the module steps
// (read-only, shared by every function).
func applyFuncStep(s opt.Step, f *ir.Func, stored map[int32]bool) {
	switch s.Pass {
	case opt.PassVRP:
		passes.VRP(f)
	case opt.PassLocalCSE:
		passes.LocalCSE(f, s.Args[0] != 0, s.Args[1] != 0)
	case opt.PassPRE:
		passes.PRE(f)
	case opt.PassGCSE:
		for i := int32(0); i < s.Args[0]; i++ {
			if passes.GCSE(f) == 0 {
				break
			}
		}
	case opt.PassGCSELas:
		passes.GCSELoadAfterStore(f)
	case opt.PassStoreMotion:
		passes.StoreMotion(f)
	case opt.PassLICM:
		passes.LICM(f, s.Args[0] != 0, stored)
	case opt.PassUnswitch:
		passes.Unswitch(f)
	case opt.PassStrengthReduce:
		passes.StrengthReduce(f)
	case opt.PassUnroll:
		passes.Unroll(f, int(s.Args[0]), int(s.Args[1]))
	case opt.PassRegmove:
		passes.Regmove(f)
	case opt.PassThreadJumps:
		passes.ThreadJumps(f)
	case opt.PassDeadCode:
		passes.DeadCode(f)
	case opt.PassSchedule:
		passes.Schedule(f, s.Args[0] != 0, s.Args[1] != 0)
	case opt.PassReorderBlocks:
		passes.ReorderBlocks(f)
	case opt.PassAlign:
		passes.Align(f, passes.AlignFlags{
			Functions: s.Args[0] != 0,
			Loops:     s.Args[1] != 0,
			Jumps:     s.Args[2] != 0,
			Labels:    s.Args[3] != 0,
		})
	case opt.PassAlloc:
		regalloc.Allocate(f, f.ID, regalloc.Options{
			CallerSaves: !f.Library && s.Args[0] != 0,
		})
	case opt.PassGCSEReload:
		passes.GCSEAfterReload(f)
	case opt.PassPeephole2:
		passes.Peephole2(f)
	case opt.PassCrossJump:
		passes.CrossJump(f)
	default:
		panic(fmt.Sprintf("core: %v is not a function step", s.Pass))
	}
}
