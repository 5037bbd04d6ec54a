package opt_test

import (
	"math/rand"
	"reflect"
	"testing"

	"portcc/internal/opt"
)

// TestPlanFoldsDontCares pins the canonicalisation: dimensions that gate
// passes which do not run must not influence the plan, so settings
// differing only in don't-care dimensions share one plan.
func TestPlanFoldsDontCares(t *testing.T) {
	base := opt.O3()
	base.Flags[opt.FGcse] = false
	base.Flags[opt.FInlineFunctions] = false
	base.Flags[opt.FUnrollLoops] = false
	base.Flags[opt.FScheduleInsns] = false
	bp := opt.PlanFor(&base)

	mutations := []func(c *opt.Config){
		func(c *opt.Config) { c.Flags[opt.FNoGcseLm] = !c.Flags[opt.FNoGcseLm] },
		func(c *opt.Config) { c.Flags[opt.FGcseSm] = !c.Flags[opt.FGcseSm] },
		func(c *opt.Config) { c.Flags[opt.FGcseLas] = !c.Flags[opt.FGcseLas] },
		func(c *opt.Config) { c.Params[opt.PMaxGcsePasses] = 3 },
		func(c *opt.Config) { c.Params[opt.PMaxInlineInsnsAuto] = 0 },
		func(c *opt.Config) { c.Params[opt.PInlineCallCost] = 3 },
		func(c *opt.Config) { c.Params[opt.PMaxUnrollTimes] = 3 },
		func(c *opt.Config) { c.Params[opt.PMaxUnrolledInsns] = 0 },
		func(c *opt.Config) { c.Flags[opt.FNoSchedInterblock] = !c.Flags[opt.FNoSchedInterblock] },
		func(c *opt.Config) { c.Flags[opt.FNoSchedSpec] = !c.Flags[opt.FNoSchedSpec] },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		p := opt.PlanFor(&c)
		if !reflect.DeepEqual(p, bp) {
			t.Errorf("mutation %d changed the plan:\n  base %+v\n  got  %+v", i, bp, p)
		}
	}
}

// TestPlanStepsMatchesSequenceLengths checks the pass-application
// arithmetic behind Stats.PassRuns: every non-library function runs the
// optimisation sequence, allocation and the post-reload sequence, a
// library function allocation alone.
func TestPlanStepsMatchesSequenceLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		c := opt.Random(rng)
		p := opt.PlanFor(&c)
		nonLib, lib := 3, 2
		want := len(p.Mod) + nonLib*(len(p.Fn)+1+len(p.Post)) + lib
		if got := p.Steps(nonLib, lib); got != want {
			t.Fatalf("cfg %d: Steps=%d, want %d", i, got, want)
		}
	}
}

// TestStepComparable: steps are plain comparable values, equal iff pass
// kind and every argument position agree.
func TestStepComparable(t *testing.T) {
	c := opt.O3()
	p := opt.PlanFor(&c)
	if p.Fn[0] != opt.PlanFor(&c).Fn[0] {
		t.Fatal("identical plans produced unequal steps")
	}
	altered := p.Fn[0]
	altered.Args[5]++
	if altered == p.Fn[0] {
		t.Fatal("argument change did not alter step equality")
	}
}
