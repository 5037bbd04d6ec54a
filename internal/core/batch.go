package core

import (
	"portcc/internal/codegen"
	"portcc/internal/ir"
	"portcc/internal/opt"
)

// CompileBatch compiles one module under every configuration of a sweep,
// one CompilePlan per setting. Results are positional: progs[i] (or
// errs[i]) belongs to cfgs[i], and every progs[i] is what a fresh
// Compile(src, cfgs[i]) returns. passRuns is the number of pass
// applications the call performed. The source module is never mutated.
func CompileBatch(src *ir.Module, cfgs []*opt.Config) (progs []*codegen.Program, errs []error, passRuns int64) {
	progs = make([]*codegen.Program, len(cfgs))
	errs = make([]error, len(cfgs))
	nonLib, lib := 0, 0
	for _, f := range src.Funcs {
		if f.Library {
			lib++
		} else {
			nonLib++
		}
	}
	for i, c := range cfgs {
		plan := opt.PlanFor(c)
		progs[i], errs[i] = CompilePlan(src, &plan)
		passRuns += int64(plan.Steps(nonLib, lib))
	}
	return progs, errs, passRuns
}
