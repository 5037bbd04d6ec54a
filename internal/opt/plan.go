package opt

import (
	"fmt"
	"strings"
)

// Pass identifies one pipeline step kind.
type Pass uint8

// The pipeline step kinds, in rough pipeline order.
const (
	PassInline  Pass = iota // module: function inlining (6 param args)
	PassSibling             // module: sibling-call optimisation
	PassVRP
	PassLocalCSE // args: followJumps, skipBlocks
	PassPRE
	PassGCSE // args: max passes of the bounded fixpoint loop
	PassGCSELas
	PassStoreMotion
	PassLICM // args: loadMotion
	PassUnswitch
	PassStrengthReduce
	PassUnroll // args: maxTimes, maxInsns
	PassRegmove
	PassThreadJumps
	PassDeadCode
	PassSchedule // args: interblock, speculative
	PassReorderBlocks
	PassAlign // args: functions, loops, jumps, labels
	PassAlloc // args: caller-saves (masked off for library functions)
	PassGCSEReload
	PassPeephole2
	PassCrossJump

	// NumPasses is the number of step kinds.
	NumPasses = int(PassCrossJump) + 1
)

var passNames = [NumPasses]string{
	"inline", "sibling", "vrp", "cse", "pre", "gcse", "gcse_las",
	"store_motion", "licm", "unswitch", "strength_reduce", "unroll",
	"regmove", "thread_jumps", "dead_code", "schedule", "reorder_blocks",
	"align", "alloc", "gcse_reload", "peephole2", "crossjump",
}

// String returns the step-kind name.
func (p Pass) String() string {
	if int(p) < NumPasses {
		return passNames[p]
	}
	return fmt.Sprintf("pass(%d)", uint8(p))
}

// Step is one pass application of a pipeline plan: the pass kind plus the
// concrete argument values it runs with. Steps are comparable values.
type Step struct {
	Pass Pass
	// Args carries the concrete pass arguments (booleans as 0/1,
	// parameters as their resolved values, not level indices). Unused
	// slots are zero.
	Args [6]int32
}

func step(p Pass, args ...int32) Step {
	s := Step{Pass: p}
	copy(s.Args[:], args)
	return s
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Plan is the canonical pipeline of a configuration: the ordered pass
// applications Compile performs, with every don't-care dimension of the
// configuration folded away (a flag that gates a pass that does not run,
// or a parameter of such a pass, does not appear). Two configurations
// with equal plans compile to bit-identical binaries.
type Plan struct {
	// Mod is the module-level prefix (inlining, sibling calls), applied
	// once per module before any per-function work.
	Mod []Step
	// Fn is the per-function optimisation sequence, applied to every
	// non-library function.
	Fn []Step
	// Alloc is the register-allocation step, applied to every function;
	// its caller-saves argument is forced off for library functions.
	Alloc Step
	// Post is the post-reload sequence, applied to every non-library
	// function after allocation.
	Post []Step
}

// PlanFor derives the canonical plan of a configuration. The step order
// mirrors gcc 4.2 exactly as core.Compile executes it.
func PlanFor(c *Config) Plan {
	var p Plan
	if c.Flag(FInlineFunctions) {
		p.Mod = append(p.Mod, step(PassInline,
			int32(c.Param(PMaxInlineInsnsAuto)),
			int32(c.Param(PLargeFunctionInsns)),
			int32(c.Param(PLargeFunctionGrowth)),
			int32(c.Param(PLargeUnitInsns)),
			int32(c.Param(PInlineUnitGrowth)),
			int32(c.Param(PInlineCallCost))))
	}
	if c.Flag(FOptimizeSiblingCalls) {
		p.Mod = append(p.Mod, step(PassSibling))
	}

	loadMotion := c.Flag(FGcse) && !c.Flag(FNoGcseLm)
	cse := step(PassLocalCSE, b2i(c.Flag(FCseFollowJumps)), b2i(c.Flag(FCseSkipBlocks)))
	if c.Flag(FTreeVrp) {
		p.Fn = append(p.Fn, step(PassVRP))
	}
	p.Fn = append(p.Fn, cse)
	if c.Flag(FTreePre) {
		p.Fn = append(p.Fn, step(PassPRE))
	}
	if c.Flag(FGcse) {
		p.Fn = append(p.Fn, step(PassGCSE, int32(c.Param(PMaxGcsePasses))))
		if c.Flag(FGcseLas) {
			p.Fn = append(p.Fn, step(PassGCSELas))
		}
		if c.Flag(FGcseSm) {
			p.Fn = append(p.Fn, step(PassStoreMotion))
		}
	}
	p.Fn = append(p.Fn, step(PassLICM, b2i(loadMotion)))
	if c.Flag(FUnswitchLoops) {
		p.Fn = append(p.Fn, step(PassUnswitch))
	}
	if c.Flag(FStrengthReduce) {
		p.Fn = append(p.Fn, step(PassStrengthReduce))
	}
	if c.Flag(FUnrollLoops) {
		p.Fn = append(p.Fn, step(PassUnroll,
			int32(c.Param(PMaxUnrollTimes)), int32(c.Param(PMaxUnrolledInsns))))
	}
	if c.Flag(FRerunLoopOpt) {
		p.Fn = append(p.Fn, step(PassLICM, b2i(loadMotion)))
	}
	if c.Flag(FRerunCseAfterLoop) {
		p.Fn = append(p.Fn, cse)
	}
	if c.Flag(FExpensiveOptimizations) {
		p.Fn = append(p.Fn, step(PassLocalCSE, 1, 1))
		if c.Flag(FGcse) {
			// A single unconditional GCSE call is the bounded loop with
			// one iteration.
			p.Fn = append(p.Fn, step(PassGCSE, 1))
		}
	}
	if c.Flag(FRegmove) {
		p.Fn = append(p.Fn, step(PassRegmove))
	}
	if c.Flag(FThreadJumps) {
		p.Fn = append(p.Fn, step(PassThreadJumps))
	}
	p.Fn = append(p.Fn, step(PassDeadCode))
	if c.Flag(FScheduleInsns) {
		p.Fn = append(p.Fn, step(PassSchedule,
			b2i(!c.Flag(FNoSchedInterblock)), b2i(!c.Flag(FNoSchedSpec))))
	}
	if c.Flag(FReorderBlocks) {
		p.Fn = append(p.Fn, step(PassReorderBlocks))
	}
	p.Fn = append(p.Fn, step(PassAlign,
		b2i(c.Flag(FAlignFunctions)), b2i(c.Flag(FAlignLoops)),
		b2i(c.Flag(FAlignJumps)), b2i(c.Flag(FAlignLabels))))

	p.Alloc = step(PassAlloc, b2i(c.Flag(FCallerSaves)))

	if c.Flag(FGcseAfterReload) {
		p.Post = append(p.Post, step(PassGCSEReload))
	}
	if c.Flag(FPeephole2) {
		p.Post = append(p.Post, step(PassPeephole2))
	}
	if c.Flag(FCrossjumping) {
		p.Post = append(p.Post, step(PassCrossJump))
	}
	return p
}

// Steps counts the pass applications a compile of this plan performs on a
// module with the given function counts (allocation alone for a library
// function): the unit of Stats.PassRuns.
func (p *Plan) Steps(nonLibraryFuncs, libraryFuncs int) int {
	return len(p.Mod) +
		nonLibraryFuncs*(len(p.Fn)+1+len(p.Post)) +
		libraryFuncs
}

// String renders the plan with pass names, for diagnostics.
func (p *Plan) String() string {
	var parts []string
	for _, s := range p.Mod {
		parts = append(parts, s.Pass.String())
	}
	for _, s := range p.Fn {
		parts = append(parts, s.Pass.String())
	}
	parts = append(parts, p.Alloc.Pass.String())
	for _, s := range p.Post {
		parts = append(parts, s.Pass.String())
	}
	return strings.Join(parts, " ")
}
