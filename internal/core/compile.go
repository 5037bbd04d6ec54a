// Package core is the portable optimising compiler of the paper's Figure 2:
// the one pass pipeline an optimisation configuration selects from, run by
// Compile for one setting and by CompileBatch over a sweep's settings. The
// deployment path that picks the configuration - one profile run's
// performance counters, a microarchitecture description and the learned
// model - is Session.OptimizeFor in the root package.
package core

import (
	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/passes"
	"portcc/internal/regalloc"
)

// Version is the code-generation version of this compiler: any change
// that alters the binary image a given (module, configuration) pair
// compiles to - a pass, the pipeline's order or gates, allocation,
// lowering, placement, or the image serialisation the fingerprint hashes -
// must bump it. The result store's compile index keys on it, so
// fingerprints recorded by an older compiler are clean misses instead of
// stale identities; TestVersionsPinBehaviour (internal/dataset) holds the
// constant to the binaries the suite actually compiles to.
const Version = 1

// Compile clones the module and runs the full pipeline - pre-allocation
// optimisation passes selected by cfg, register allocation, post-allocation
// cleanups, placement - and returns the binary image.
//
// The pass order mirrors gcc 4.2: interprocedural (inlining) first, then
// scalar and loop optimisation, scheduling, allocation, and post-reload
// cleanup.
func Compile(src *ir.Module, cfg *opt.Config) (*codegen.Program, error) {
	p, _, err := CompileCount(src, cfg)
	return p, err
}

// CompileCount is Compile that also returns the number of pass
// applications the compile made, the unit of dataset.Stats.PassRuns: a
// module pass counts once, a per-function pass once per function it ran
// on (a bounded GCSE loop is one application however many rounds it
// takes). The count is the same whether or not lowering fails.
func CompileCount(src *ir.Module, cfg *opt.Config) (*codegen.Program, int, error) {
	m := src.Clone()
	n := pipeline(m, cfg, nil)
	p, err := codegen.Lower(m)
	return p, n, err
}

// CompileBatch compiles one module under every configuration of a sweep,
// one CompileCount per setting. Results are positional: progs[i] (or
// errs[i]) belongs to cfgs[i], and every progs[i] is what a fresh
// Compile(src, cfgs[i]) returns. passRuns is the sum of the settings'
// pass-application counts. The source module is never mutated.
func CompileBatch(src *ir.Module, cfgs []*opt.Config) (progs []*codegen.Program, errs []error, passRuns int64) {
	progs = make([]*codegen.Program, len(cfgs))
	errs = make([]error, len(cfgs))
	for i, c := range cfgs {
		var n int
		progs[i], n, errs[i] = CompileCount(src, c)
		passRuns += int64(n)
	}
	return progs, errs, passRuns
}

// passRun counts a pipeline's pass applications and reports each to an
// optional hook.
type passRun struct {
	n     int
	after func(pass string, f *ir.Func)
}

// done records one application of pass that ran on f.
func (r *passRun) done(pass string, f *ir.Func) {
	r.n++
	if r.after != nil {
		r.after(pass, f)
	}
}

// module records one application of a module pass, reporting it on every
// function the pass may have changed.
func (r *passRun) module(pass string, m *ir.Module) {
	r.n++
	if r.after != nil {
		for _, f := range m.Funcs {
			r.after(pass, f)
		}
	}
}

// pipeline runs the passes c selects over m, in place: the module passes,
// each non-library function's optimisation sequence, allocation for every
// function, then each non-library function's post-reload passes. A flag
// that is off skips its pass, whose parameters and sub-flags then change
// nothing. It returns the number of pass applications and, when after is
// set, calls it after each one.
func pipeline(m *ir.Module, c *opt.Config, after func(pass string, f *ir.Func)) int {
	r := passRun{after: after}
	if c.Flag(opt.FInlineFunctions) {
		passes.Inline(m, passes.InlineParams{
			MaxInsnsAuto:        c.Param(opt.PMaxInlineInsnsAuto),
			LargeFunctionInsns:  c.Param(opt.PLargeFunctionInsns),
			LargeFunctionGrowth: c.Param(opt.PLargeFunctionGrowth),
			LargeUnitInsns:      c.Param(opt.PLargeUnitInsns),
			UnitGrowth:          c.Param(opt.PInlineUnitGrowth),
			CallCost:            c.Param(opt.PInlineCallCost),
		})
		r.module("inline", m)
	}
	if c.Flag(opt.FOptimizeSiblingCalls) {
		passes.SiblingCalls(m)
		r.module("sibling", m)
	}
	stored := passes.StoredStreams(m)
	for _, f := range m.Funcs {
		if !f.Library {
			r.optimise(f, c, stored)
		}
	}
	callerSaves := c.Flag(opt.FCallerSaves)
	for _, f := range m.Funcs {
		regalloc.Allocate(f, f.ID, regalloc.Options{CallerSaves: callerSaves && !f.Library})
		r.done("alloc", f)
	}
	for _, f := range m.Funcs {
		if f.Library {
			continue
		}
		if c.Flag(opt.FGcseAfterReload) {
			passes.GCSEAfterReload(f)
			r.done("gcse_reload", f)
		}
		if c.Flag(opt.FPeephole2) {
			passes.Peephole2(f)
			r.done("peephole2", f)
		}
		if c.Flag(opt.FCrossjumping) {
			passes.CrossJump(f)
			r.done("crossjump", f)
		}
	}
	return r.n
}

// optimise runs the pre-allocation sequence over one non-library function.
// stored is the module-wide stored-streams analysis taken after the module
// passes (read-only, shared by every function).
func (r *passRun) optimise(f *ir.Func, c *opt.Config, stored map[int32]bool) {
	followJumps, skipBlocks := c.Flag(opt.FCseFollowJumps), c.Flag(opt.FCseSkipBlocks)
	loadMotion := c.Flag(opt.FGcse) && !c.Flag(opt.FNoGcseLm)
	if c.Flag(opt.FTreeVrp) {
		passes.VRP(f)
		r.done("vrp", f)
	}
	passes.LocalCSE(f, followJumps, skipBlocks)
	r.done("cse", f)
	if c.Flag(opt.FTreePre) {
		passes.PRE(f)
		r.done("pre", f)
	}
	if c.Flag(opt.FGcse) {
		// A fixpoint bounded by max-gcse-passes rounds.
		for range c.Param(opt.PMaxGcsePasses) {
			if passes.GCSE(f) == 0 {
				break
			}
		}
		r.done("gcse", f)
		if c.Flag(opt.FGcseLas) {
			passes.GCSELoadAfterStore(f)
			r.done("gcse_las", f)
		}
		if c.Flag(opt.FGcseSm) {
			passes.StoreMotion(f)
			r.done("store_motion", f)
		}
	}
	passes.LICM(f, loadMotion, stored)
	r.done("licm", f)
	if c.Flag(opt.FUnswitchLoops) {
		passes.Unswitch(f)
		r.done("unswitch", f)
	}
	if c.Flag(opt.FStrengthReduce) {
		passes.StrengthReduce(f)
		r.done("strength_reduce", f)
	}
	if c.Flag(opt.FUnrollLoops) {
		passes.Unroll(f, c.Param(opt.PMaxUnrollTimes), c.Param(opt.PMaxUnrolledInsns))
		r.done("unroll", f)
	}
	if c.Flag(opt.FRerunLoopOpt) {
		passes.LICM(f, loadMotion, stored)
		r.done("licm", f)
	}
	if c.Flag(opt.FRerunCseAfterLoop) {
		passes.LocalCSE(f, followJumps, skipBlocks)
		r.done("cse", f)
	}
	if c.Flag(opt.FExpensiveOptimizations) {
		passes.LocalCSE(f, true, true)
		r.done("cse", f)
		if c.Flag(opt.FGcse) {
			passes.GCSE(f)
			r.done("gcse", f)
		}
	}
	if c.Flag(opt.FRegmove) {
		passes.Regmove(f)
		r.done("regmove", f)
	}
	if c.Flag(opt.FThreadJumps) {
		passes.ThreadJumps(f)
		r.done("thread_jumps", f)
	}
	passes.DeadCode(f)
	r.done("dead_code", f)
	if c.Flag(opt.FScheduleInsns) {
		passes.Schedule(f, !c.Flag(opt.FNoSchedInterblock), !c.Flag(opt.FNoSchedSpec))
		r.done("schedule", f)
	}
	if c.Flag(opt.FReorderBlocks) {
		passes.ReorderBlocks(f)
		r.done("reorder_blocks", f)
	}
	passes.Align(f, passes.AlignFlags{
		Functions: c.Flag(opt.FAlignFunctions),
		Loops:     c.Flag(opt.FAlignLoops),
		Jumps:     c.Flag(opt.FAlignJumps),
		Labels:    c.Flag(opt.FAlignLabels),
	})
	r.done("align", f)
}
