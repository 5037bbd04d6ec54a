package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"portcc/internal/codegen"
	"portcc/internal/core"
	"portcc/internal/opt"
	"portcc/internal/prog"
)

// imageBytes is the canonical serialisation the equivalence tests
// byte-compare: if it matches, the trace generator cannot distinguish the
// programs.
func imageBytes(p *codegen.Program) []byte {
	return codegen.AppendImage(nil, p)
}

// sweepConfigs samples a sweep the way dataset generation does: -O3 first,
// then random settings, plus a deliberate duplicate (of the returned
// index, appended last): equal settings compile to equal binaries.
func sweepConfigs(seed int64, n int) ([]*opt.Config, int) {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]*opt.Config, 0, n+2)
	o3 := opt.O3()
	cfgs = append(cfgs, &o3)
	for i := 0; i < n; i++ {
		c := opt.Random(rng)
		cfgs = append(cfgs, &c)
	}
	twin := len(cfgs) / 2
	dup := *cfgs[twin]
	cfgs = append(cfgs, &dup)
	return cfgs, twin
}

// TestCompileBatchMatchesCompile: for random setting sweeps over real
// programs the binaries are positional and byte-identical to fresh
// per-setting compiles, and the pass-application count is the sum of the
// settings' CompileCount counts (TestCompileFingerprintsPinned pins what
// the count itself reads).
func TestCompileBatchMatchesCompile(t *testing.T) {
	programs := []string{"rijndael_e", "search", "qsort", "toast", "crc", "susan_c", "fft"}
	for pi, name := range programs {
		m := prog.MustBuild(name)
		cfgs, twin := sweepConfigs(int64(100+pi), 24)
		progs, errs, passRuns := core.CompileBatch(m, cfgs)
		if len(progs) != len(cfgs) || len(errs) != len(cfgs) {
			t.Fatalf("%s: %d progs / %d errs for %d cfgs", name, len(progs), len(errs), len(cfgs))
		}
		var want int64
		for i, c := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s cfg %d: batch error: %v", name, i, errs[i])
			}
			fresh, n, err := core.CompileCount(m, c)
			if err != nil {
				t.Fatalf("%s cfg %d: fresh compile: %v", name, i, err)
			}
			if !bytes.Equal(imageBytes(progs[i]), imageBytes(fresh)) {
				t.Errorf("%s cfg %d: batched binary differs from fresh compile", name, i)
			}
			want += int64(n)
		}
		if passRuns != want {
			t.Errorf("%s: %d pass runs, want the compiles' total %d", name, passRuns, want)
		}
		if !bytes.Equal(imageBytes(progs[len(cfgs)-1]), imageBytes(progs[twin])) {
			t.Errorf("%s: duplicate config compiled to a different binary than its twin", name)
		}
	}
}

// TestCompileBatchLeavesSourcePristine pins the clone discipline: neither
// the source module nor an earlier output may be mutated by a later
// compile. Compiling the same sweep twice from the same module - and a
// disjoint sweep in between - must keep outputs stable.
func TestCompileBatchLeavesSourcePristine(t *testing.T) {
	m := prog.MustBuild("crc")
	before := m.String()
	cfgs, _ := sweepConfigs(7, 16)
	first, errs, _ := core.CompileBatch(m, cfgs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
	}
	firstBytes := make([][]byte, len(first))
	for i, p := range first {
		firstBytes[i] = imageBytes(p)
	}
	// An unrelated sweep over the same module.
	func() { c2, _ := sweepConfigs(8, 16); core.CompileBatch(m, c2) }()
	if m.String() != before {
		t.Fatal("CompileBatch mutated the source module")
	}
	// Earlier outputs must not have been touched by the later compiles
	// (output IR aliasing the source module would show here).
	again, _, _ := core.CompileBatch(m, cfgs)
	for i := range first {
		if !bytes.Equal(imageBytes(first[i]), firstBytes[i]) {
			t.Errorf("cfg %d: output mutated by a later batch", i)
		}
		if !bytes.Equal(imageBytes(again[i]), firstBytes[i]) {
			t.Errorf("cfg %d: batch output not reproducible", i)
		}
	}
}
