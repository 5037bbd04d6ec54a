// The race detector makes sync.Pool drop items on purpose, so the
// allocation pins only hold in normal builds.
//go:build !race

package passes_test

import (
	"math/rand"
	"testing"

	"portcc/internal/core"
	"portcc/internal/ir"
	"portcc/internal/opt"
	"portcc/internal/passes"
	"portcc/internal/prog"
)

// TestValueNumberingAllocs pins the three value-numbering passes on gs's
// op_image, the suite's largest function of that program. Fresh tables
// per pass cost 4 479 allocations per LocalCSE + GCSE + PRE round, pooled
// tables 1 635, and with LocalCSE's per-block tables as runs of one
// pooled slice, the replacement maps register-indexed and the CFG
// analysis kept across the round, 164. The bound leaves room for a pool
// the collector emptied mid-measurement.
func TestValueNumberingAllocs(t *testing.T) {
	m := prog.MustBuild("gs")
	var f *ir.Func
	for _, g := range m.Funcs {
		if g.Name == "op_image" {
			f = g
		}
	}
	if f == nil {
		t.Fatal("gs has no op_image")
	}
	const runs = 20
	clones := make([]*ir.Func, runs+1) // AllocsPerRun adds a warm-up call
	for i := range clones {
		clones[i] = f.Clone()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		g := clones[next]
		next++
		passes.LocalCSE(g, true, true)
		passes.GCSE(g)
		passes.PRE(g)
	})
	if allocs > 400 {
		t.Errorf("LocalCSE + GCSE + PRE allocate %.0f times on gs op_image, want at most 400", allocs)
	}
}

// TestCompileAllocs pins a whole compile of gs: clone, every pass of
// the pipeline, register allocation and lowering. With tables hashed by
// register or block and the CFG analysis rebuilt by nearly every pass it
// allocated 23 471 times at -O3 and 11 754 at the seeded setting; with
// register-indexed tables and the analysis kept across instruction-only
// passes, 1 830 and 1 791. The bounds leave room for pools the collector
// emptied mid-measurement.
func TestCompileAllocs(t *testing.T) {
	m := prog.MustBuild("gs")
	seeded := opt.Random(rand.New(rand.NewSource(29)))
	for _, c := range []struct {
		name  string
		cfg   opt.Config
		bound float64
	}{
		{"O3", opt.O3(), 3000},
		{"seeded", seeded, 3000},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := core.Compile(m, &c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.bound {
			t.Errorf("compiling gs at %s allocates %.0f times, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}
