package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"portcc/internal/cpu"
	"portcc/internal/features"
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
	path := filepath.Join(t.TempDir(), "ds.bin")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ds) {
		t.Fatal("round-trip changed the dataset")
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

// v1Header is the gob header a version 1 dataset file opened with.
type v1Header struct {
	Magic   string
	Version int
}

func TestLoadVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	gobFile := func(name string, vs ...any) string {
		t.Helper()
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, v := range vs {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	future := append([]byte(fileMagic), binary.LittleEndian.AppendUint64(nil, FormatVersion+1)...)
	for name, path := range map[string]string{
		// What every build before the flat layout wrote.
		"version 1 gob file": gobFile("v1.gob", v1Header{Magic: fileMagic, Version: 1}, &Dataset{Programs: []string{"crc"}}),
		// A pre-versioning file: a bare gob-encoded Dataset with no header.
		"legacy file":  gobFile("legacy.gob", &Dataset{Programs: []string{"crc"}}),
		"future file":  writeFile(t, dir, "future.bin", future),
		"garbage file": writeFile(t, dir, "garbage.bin", []byte("not a dataset")),
		"empty file":   writeFile(t, dir, "empty.bin", nil),
	} {
		if _, err := Load(path); !errors.Is(err, pcerr.ErrDatasetVersion) {
			t.Errorf("%s: got %v, want ErrDatasetVersion", name, err)
		}
	}
}

func writeFile(t *testing.T, dir, name string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadValidatesShape: a dataset whose arrays disagree has no flat
// layout, so Save refuses it and writes nothing; a file whose body
// disagrees with its counts, or whose configurations lie outside their
// spaces, fails Load - each used to load and panic later in
// TrainingPairs or ml.FitGood.
func TestLoadValidatesShape(t *testing.T) {
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.bin")
	// Every legitimate file loads, from either space; the base-space one
	// is written last and stays as the rows' starting point.
	for _, extended := range []bool{true, false} {
		cfg := tinyConfig()
		cfg.Extended = extended
		ds, err := Generate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Save(valid); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(valid); err != nil {
			t.Fatalf("extended=%v: a generated dataset must load: %v", extended, err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(d *Dataset)
		want   string // empty: Save refuses; else Load's error names it
	}{
		{"speedups short of a program", func(d *Dataset) { d.Speedups = d.Speedups[:2] }, ""},
		{"features short of a program", func(d *Dataset) { d.Features = d.Features[:2] }, ""},
		{"baselines short of a program", func(d *Dataset) { d.BaselineCycles = d.BaselineCycles[:2] }, ""},
		{"runs short of a program", func(d *Dataset) { d.Runs = d.Runs[:2] }, ""},
		{"speedups short of an arch", func(d *Dataset) { d.Speedups[1] = d.Speedups[1][:2] }, ""},
		{"features short of an arch", func(d *Dataset) { d.Features[2] = d.Features[2][:1] }, ""},
		{"baselines short of an arch", func(d *Dataset) { d.BaselineCycles[0] = nil }, ""},
		{"speedups short of a setting", func(d *Dataset) { d.Speedups[1][2] = d.Speedups[1][2][:10] }, ""},
		{"feature vector short", func(d *Dataset) { d.Features[0][1] = d.Features[0][1][:18] }, ""},
		{"no settings", func(d *Dataset) {
			d.Opts = []opt.Config{}
			for p := range d.Speedups {
				for a := range d.Speedups[p] {
					d.Speedups[p][a] = nil
				}
			}
		}, "x 0 settings"},
		{"arch outside the space", func(d *Dataset) { d.Archs[1].IL1Size = 3 }, "arch 1: "},
		{"setting outside the space", func(d *Dataset) { d.Opts[4].Params[0] = 9 }, "setting 4: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Load(valid)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(d)
			path := filepath.Join(t.TempDir(), "bad.bin")
			err = d.Save(path)
			if tc.want == "" {
				if !errors.Is(err, pcerr.ErrInvalidConfig) {
					t.Fatalf("Save: got %v, want ErrInvalidConfig", err)
				}
				if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("Save wrote a file it refused: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkLoadRefuses(t, path, tc.want)
		})
	}
	// Corruptions of the valid file's bytes: the layout's counts and its
	// length disagree.
	b, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	lengths := len(fileMagic) + 8 // the JSON lengths, after the version
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"truncated body", b[:len(b)-1], "3 programs x 3 archs x 11 settings in a"},
		{"count past the end", append(append(bytes.Clone(b[:lengths+8]), 0, 0, 0, 0, 1), b[lengths+13:]...), "bytes of JSON in a"},
		{"trailing bytes", append(bytes.Clone(b), 0), "3 programs x 3 archs x 11 settings in a"},
		// JSON field names match case-insensitively: this decodes, and
		// only the re-encode check refuses it.
		{"spec not canonical", bytes.Replace(b, []byte(`"Naive":false`), []byte(`"naive":false`), 1), "not canonical"},
		{"config not canonical", bytes.Replace(b, []byte(`"NumArchs"`), []byte(`"numArchs"`), 1), "not canonical"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLoadRefuses(t, writeFile(t, t.TempDir(), "bad.bin", tc.b), tc.want)
		})
	}
}

// checkLoadRefuses asserts Load fails path with ErrInvalidConfig, naming
// the file and want.
func checkLoadRefuses(t *testing.T, path, want string) {
	t.Helper()
	_, err := Load(path)
	if !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Fatalf("got %v, want ErrInvalidConfig", err)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, want) {
		t.Errorf("error %q must name the file and %q", msg, want)
	}
}

// fuzzSeedDataset is the smallest dataset with every array non-empty.
func fuzzSeedDataset() *Dataset {
	progs := []string{"crc"}
	feats := make([]float64, features.Dim)
	for i := range feats {
		feats[i] = float64(i) / 3
	}
	return &Dataset{
		Cfg:            GenConfig{Programs: progs, NumArchs: 1, NumOpts: 1, Seed: 21, Eval: EvalConfig{TargetInsns: 6000, Seed: 1}},
		Programs:       progs,
		Archs:          []uarch.Config{uarch.XScale()},
		Opts:           []opt.Config{opt.O3(), {}},
		Speedups:       [][][]float32{{{1, 1.25}}},
		Features:       [][][]float64{{feats}},
		BaselineCycles: [][]float64{{12345.5}},
		Runs:           []int{3},
	}
}

// fileDecodeSlack is a decode's fixed allocation, whatever the input: an
// error message, and what the fuzzing engine allocates meanwhile.
const fileDecodeSlack = 64 << 10

// FuzzDatasetLoad fuzzes the decode half of Load: any input fails typed
// or decodes to a dataset that re-encodes to exactly the input bytes,
// and the decode allocates within decodeRequest's multiple of the input
// (the JSON documents) plus a constant.
func FuzzDatasetLoad(f *testing.F) {
	seed := fuzzSeedDataset()
	b, err := seed.appendFile(nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(b), len(b) - 1, len(b) / 2, len(fileMagic) + 24, len(fileMagic) + 8, 3} {
		f.Add(bytes.Clone(b[:n]))
	}
	seed.Cfg.Extended, seed.Programs, seed.Runs = true, []string{}, []int{}
	seed.Speedups, seed.Features, seed.BaselineCycles = [][][]float32{}, [][][]float64{}, [][]float64{}
	if b, err = seed.appendFile(nil); err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		d, err := decode(b)
		runtime.ReadMemStats(&ms)
		if used, limit := ms.TotalAlloc-before, uint64(64*len(b)+fileDecodeSlack); used > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), used, limit)
		}
		if err != nil {
			if !errors.Is(err, pcerr.ErrInvalidConfig) && !errors.Is(err, pcerr.ErrDatasetVersion) && !errors.Is(err, pcerr.ErrUnknownProgram) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := d.appendFile(nil)
		if err != nil {
			t.Fatalf("decoded dataset does not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%x re-encodes as %x", b, again)
		}
	})
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
