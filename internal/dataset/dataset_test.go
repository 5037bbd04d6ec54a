package dataset

import (
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portcc/internal/cpu"
	"portcc/internal/pcerr"

	"portcc/internal/opt"
	"portcc/internal/uarch"
)

func tinyConfig() GenConfig {
	return GenConfig{
		Programs: []string{"crc", "bitcnts", "qsort"},
		NumArchs: 3,
		NumOpts:  10,
		Seed:     21,
		Eval:     EvalConfig{TargetInsns: 6000, Seed: 1},
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	nP, nA, nO := ds.Dims()
	if nP != 3 || nA != 3 || nO != 11 {
		t.Fatalf("dims %d/%d/%d, want 3/3/11 (O3 + 10 random)", nP, nA, nO)
	}
	o3 := opt.O3()
	if ds.Opts[0] != o3 {
		t.Error("Opts[0] must be the -O3 baseline")
	}
	for p := 0; p < nP; p++ {
		for a := 0; a < nA; a++ {
			if ds.Speedups[p][a][0] != 1 {
				t.Fatal("baseline speedup must be exactly 1")
			}
			if len(ds.Features[p][a]) != 19 {
				t.Fatal("feature vectors must be 19-dimensional")
			}
			if ds.BaselineCycles[p][a] <= 0 {
				t.Fatal("baseline cycles must be positive")
			}
			for _, s := range ds.Speedups[p][a] {
				if s <= 0 || s > 20 {
					t.Fatalf("implausible speedup %f", s)
				}
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Speedups {
		for ar := range a.Speedups[p] {
			for o := range a.Speedups[p][ar] {
				if a.Speedups[p][ar][o] != b.Speedups[p][ar][o] {
					t.Fatalf("speedup (%d,%d,%d) differs across runs", p, ar, o)
				}
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	nP, nA, nO := back.Dims()
	if nP != 3 || nA != 3 || nO != 11 {
		t.Fatal("round-trip changed dimensions")
	}
	if back.Speedups[1][2][3] != ds.Speedups[1][2][3] {
		t.Fatal("round-trip changed data")
	}
	if back.Programs[0] != ds.Programs[0] {
		t.Fatal("round-trip changed program list")
	}
}

func TestTrainingPairs(t *testing.T) {
	ds, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ds.TrainingPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 9 {
		t.Fatalf("%d training pairs, want 3x3", len(pairs))
	}
	for _, p := range pairs {
		sum := 0.0
		for j := 0; j < 2; j++ {
			sum += p.G.Theta[0][j]
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatal("fitted distribution not normalised")
		}
	}
}

func TestBestSpeedup(t *testing.T) {
	ds, err := Generate(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	best, o := ds.BestSpeedup(0, 0)
	if best < 1 {
		t.Error("best must be at least the baseline (O3 is in the sample)")
	}
	if o < 0 || o >= len(ds.Opts) {
		t.Error("best index out of range")
	}
}

func TestEvaluatorCaching(t *testing.T) {
	ev := NewEvaluator(EvalConfig{TargetInsns: 5000})
	o3 := opt.O3()
	if _, err := ev.Run("crc", &o3, uarch.XScale()); err != nil {
		t.Fatal(err)
	}
	c1 := ev.Stats().Compiles
	if _, err := ev.Run("crc", &o3, uarch.XScale()); err != nil {
		t.Fatal(err)
	}
	st := ev.Stats()
	if st.Compiles != c1 {
		t.Error("second run recompiled despite the trace cache")
	}
	if st.Simulations != 2 {
		t.Errorf("%d simulations recorded, want 2", st.Simulations)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(context.Background(), GenConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Generate(context.Background(), GenConfig{Programs: []string{"nope"}, NumArchs: 1, NumOpts: 1}); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestGenerateTypedErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Generate(ctx, GenConfig{}); !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Errorf("empty config: got %v, want ErrInvalidConfig", err)
	}
	if _, err := Generate(ctx, GenConfig{Programs: []string{"nope"}, NumArchs: 1, NumOpts: 1}); !errors.Is(err, pcerr.ErrUnknownProgram) {
		t.Errorf("unknown program: got %v, want ErrUnknownProgram", err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	dir := t.TempDir()

	// A pre-versioning file: a bare gob-encoded Dataset with no header.
	legacy := filepath.Join(dir, "legacy.gob")
	f, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&Dataset{Programs: []string{"crc"}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(legacy); !errors.Is(err, pcerr.ErrDatasetVersion) {
		t.Errorf("legacy file: got %v, want ErrDatasetVersion", err)
	}

	// A future-versioned file: right magic, wrong version.
	future := filepath.Join(dir, "future.gob")
	f, err = os.Create(future)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	if err := enc.Encode(fileHeader{Magic: fileMagic, Version: FormatVersion + 1}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(future); !errors.Is(err, pcerr.ErrDatasetVersion) {
		t.Errorf("future file: got %v, want ErrDatasetVersion", err)
	}

	// Garbage is a version problem too, not a gob panic.
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(garbage); !errors.Is(err, pcerr.ErrDatasetVersion) {
		t.Errorf("garbage file: got %v, want ErrDatasetVersion", err)
	}
}

// TestLoadValidatesShape: gob checks types, not shapes, so Load itself
// must refuse a file whose arrays disagree or whose configurations lie
// outside their spaces - each row below used to load with a nil error
// and panic later in TrainingPairs or ml.FitGood.
func TestLoadValidatesShape(t *testing.T) {
	dir := t.TempDir()
	// Every legitimate file loads, from either space; the base-space one
	// is written last and stays as the rows' starting point.
	for _, extended := range []bool{true, false} {
		cfg := tinyConfig()
		cfg.Extended = extended
		ds, err := Generate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Save(filepath.Join(dir, "valid.gob")); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(filepath.Join(dir, "valid.gob")); err != nil {
			t.Fatalf("extended=%v: a generated dataset must load: %v", extended, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(d *Dataset)
		want   string // names the first offending index
	}{
		{"speedups short of a program", func(d *Dataset) { d.Speedups = d.Speedups[:2] }, "2 speedup"},
		{"features short of a program", func(d *Dataset) { d.Features = d.Features[:2] }, "2 feature"},
		{"baselines short of a program", func(d *Dataset) { d.BaselineCycles = d.BaselineCycles[:2] }, "2 baseline"},
		{"runs short of a program", func(d *Dataset) { d.Runs = d.Runs[:2] }, "2 run-count"},
		{"speedups short of an arch", func(d *Dataset) { d.Speedups[1] = d.Speedups[1][:2] }, "program 1: 2 speedup"},
		{"features short of an arch", func(d *Dataset) { d.Features[2] = d.Features[2][:1] }, "program 2: 3 speedup, 1 feature"},
		{"baselines short of an arch", func(d *Dataset) { d.BaselineCycles[0] = nil }, "program 0: 3 speedup, 3 feature and 0 baseline"},
		{"speedups short of a setting", func(d *Dataset) { d.Speedups[1][2] = d.Speedups[1][2][:10] }, "program 1, arch 2: 10 speedups"},
		{"feature vector short", func(d *Dataset) { d.Features[0][1] = d.Features[0][1][:18] }, "program 0, arch 1: feature vector of length 18"},
		{"no settings", func(d *Dataset) { d.Opts = nil }, "no optimisation settings"},
		{"arch outside the space", func(d *Dataset) { d.Archs[1].IL1Size = 3 }, "arch 1: "},
		{"setting outside the space", func(d *Dataset) { d.Opts[4].Params[0] = 9 }, "setting 4: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Load(filepath.Join(dir, "valid.gob"))
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(d)
			path := filepath.Join(t.TempDir(), "bad.gob")
			if err := d.Save(path); err != nil {
				t.Fatal(err)
			}
			_, err = Load(path)
			if !errors.Is(err, pcerr.ErrInvalidConfig) {
				t.Fatalf("got %v, want ErrInvalidConfig", err)
			}
			if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, tc.want) {
				t.Errorf("error %q must name the file and %q", msg, tc.want)
			}
		})
	}
}

func TestSharedBaseDedupesProbes(t *testing.T) {
	// However many pool workers touch a program, its module is built and
	// its -O3 probe compiled exactly once - and results stay identical
	// to a standalone evaluator's.
	base := newSharedBase()
	o3 := opt.O3()
	tuned := opt.O3()
	tuned.Flags[0] = !tuned.Flags[0]
	var pooled [3]cpu.Result
	for i := range pooled {
		ev := newEvaluatorWith(EvalConfig{TargetInsns: 4000}, base)
		r, err := ev.Run("crc", &o3, uarch.XScale())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Run("crc", &tuned, uarch.XScale()); err != nil {
			t.Fatal(err)
		}
		pooled[i] = r
	}
	if n := base.compiles.Load(); n != 1 {
		t.Errorf("%d probe compiles across 3 pooled evaluators, want 1", n)
	}
	standalone := NewEvaluator(EvalConfig{TargetInsns: 4000})
	want, err := standalone.Run("crc", &o3, uarch.XScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range pooled {
		if got != want {
			t.Errorf("pooled evaluator %d result differs from standalone", i)
		}
	}
}
