// The race detector makes sync.Pool drop items on purpose, so the
// allocation pin only holds in normal builds.
//go:build !race

package passes_test

import (
	"testing"

	"portcc/internal/ir"
	"portcc/internal/passes"
	"portcc/internal/prog"
)

// TestValueNumberingAllocs pins the three value-numbering passes on gs's
// op_image, the suite's largest function of that program: with the
// tables pooled and the dataflow bitsets carved from one slab they
// allocate 1 635 times per LocalCSE + GCSE + PRE round, where fresh
// tables per pass cost 4 479. The bound leaves room for a pool the
// collector emptied mid-measurement.
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
	if allocs > 2000 {
		t.Errorf("LocalCSE + GCSE + PRE allocate %.0f times on gs op_image, want at most 2000", allocs)
	}
}
