package ml

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"portcc/internal/features"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
)

// synthModel builds a deterministic model without the dataset package
// (which ml cannot import): random-but-seeded feature vectors and good
// distributions across a handful of (program, arch) pairs.
func synthModel(t *testing.T) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var pairs []TrainingPair
	for _, prog := range []string{"crc", "qsort", "dijkstra"} {
		for a := 0; a < 3; a++ {
			x := make([]float64, features.Dim)
			for i := range x {
				x[i] = rng.Float64()
			}
			var g Dist
			for l := 0; l < opt.NumDims; l++ {
				sum := 0.0
				for j := 0; j < opt.DimSize(l); j++ {
					g.Theta[l][j] = rng.Float64()
					sum += g.Theta[l][j]
				}
				for j := 0; j < opt.DimSize(l); j++ {
					g.Theta[l][j] /= sum
				}
			}
			pairs = append(pairs, TrainingPair{Prog: prog, Arch: a, X: x, G: g})
		}
	}
	return Train(pairs)
}

func testInfo() ArtifactInfo {
	return ArtifactInfo{
		DatasetSHA256: "deadbeef",
		TrainConfig:   "3 programs x 3 archs",
		Programs:      3, Archs: 3, Opts: 10,
		Seed:            21,
		EvalTargetInsns: 6000, EvalSeed: 1,
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	m := synthModel(t)
	b, err := Encode(m, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Error("decoded model differs from the encoded one")
	}
	if info.DatasetSHA256 != "deadbeef" || info.EvalTargetInsns != 6000 {
		t.Errorf("info did not round-trip: %+v", info)
	}
	if info.Pairs != len(m.Pairs) {
		t.Errorf("info.Pairs = %d, want %d (Encode must denormalise it)", info.Pairs, len(m.Pairs))
	}
}

// TestArtifactReEncodeByteIdentical pins the determinism contract: the
// same model re-encodes (and a decoded model re-saves) to identical
// bytes, so artifact files diff cleanly and deploys can be verified by
// checksum.
func TestArtifactReEncodeByteIdentical(t *testing.T) {
	m := synthModel(t)
	a, err := Encode(m, testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if b, err := Encode(m, testInfo()); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("re-encoding the same model produced different bytes (%v)", err)
	}
	decoded, info, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Encode(decoded, info); err != nil || !bytes.Equal(a, c) {
		t.Fatalf("decode + re-encode produced different bytes (%v)", err)
	}
}

func TestArtifactSaveLoad(t *testing.T) {
	m := synthModel(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := Save(path, m, testInfo()); err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) || info.Pairs != len(m.Pairs) {
		t.Error("loaded artifact differs from the saved model")
	}
}

// v1Header is the gob header a version 1 artifact opened with.
type v1Header struct {
	Magic   string
	Version int
}

func TestArtifactVersionMismatch(t *testing.T) {
	// What every build before the flat layout wrote.
	var v1 bytes.Buffer
	enc := gob.NewEncoder(&v1)
	if err := enc.Encode(v1Header{Magic: artifactMagic, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(synthModel(t)); err != nil {
		t.Fatal(err)
	}
	future, err := Encode(synthModel(t), testInfo())
	if err != nil {
		t.Fatal(err)
	}
	future[len(artifactMagic)]++
	for name, data := range map[string][]byte{"version 1 gob": v1.Bytes(), "future version": future} {
		if _, _, err := Decode(data); !errors.Is(err, pcerr.ErrModelVersion) {
			t.Errorf("%s artifact: err = %v, want ErrModelVersion", name, err)
		}
	}
}

func TestArtifactForeignFile(t *testing.T) {
	wrongMagic, err := Encode(synthModel(t), testInfo())
	if err != nil {
		t.Fatal(err)
	}
	wrongMagic[0] = 'P'
	for name, data := range map[string][]byte{
		"garbage":     []byte("not a model artifact at all"),
		"empty":       nil,
		"wrong magic": wrongMagic,
	} {
		_, _, err := Decode(data)
		if !errors.Is(err, pcerr.ErrModelVersion) {
			t.Errorf("%s: err = %v, want ErrModelVersion", name, err)
		}
	}
}

// TestDecodeValidatesModel: a model the layout cannot hold fails Encode;
// an artifact whose body disagrees with its counts, or whose
// hyper-parameters Mixture cannot use, fails Decode. Each used to decode
// with a nil error, then panic in Predict (a nil normaliser) or in
// features.Distance (a short vector) - inside a daemon, since the
// prediction server hot-reloads whatever Decode accepts.
func TestDecodeValidatesModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m *Model)
		decode bool // Encode takes it and Decode refuses it
	}{
		{"nil normaliser", func(m *Model) { m.Norm = nil }, false},
		{"normaliser arrays disagree", func(m *Model) { m.Norm.Std = m.Norm.Std[:3] }, false},
		{"short feature vector", func(m *Model) { m.Pairs[1].X = m.Pairs[1].X[:1] }, false},
		{"short feature vector, pass-through normaliser", func(m *Model) {
			m.Norm = &features.Normalizer{}
			m.Pairs[1].X = m.Pairs[1].X[:1]
		}, false},
		{"negative neighbour count", func(m *Model) { m.KNeighbours = -1 }, true},
		{"negative beta", func(m *Model) { m.BetaValue = -1 }, true},
		{"NaN beta", func(m *Model) { m.BetaValue = math.NaN() }, true},
		{"infinite beta", func(m *Model) { m.BetaValue = math.Inf(1) }, true},
	} {
		m := synthModel(t)
		tc.mutate(m)
		b, err := Encode(m, testInfo())
		if tc.decode && err == nil {
			_, _, err = Decode(b)
		}
		if !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
		if !tc.decode {
			path := filepath.Join(t.TempDir(), "refused.bin")
			if err := Save(path, m, testInfo()); !errors.Is(err, pcerr.ErrInvalidConfig) {
				t.Errorf("%s: Save err = %v, want ErrInvalidConfig", tc.name, err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: Save wrote a file it refused (%v)", tc.name, err)
			}
		}
	}
	// Corruptions of a valid artifact's bytes: its counts and its length
	// disagree.
	b, err := Encode(synthModel(t), testInfo())
	if err != nil {
		t.Fatal(err)
	}
	counts := len(artifactMagic) + 8 // the pair count, after the version
	empty, err := Encode(Train(nil), testInfo())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated body":     b[:len(b)-1],
		"count past the end": append(append(bytes.Clone(b[:counts]), 200), b[counts+1:]...),
		"trailing bytes":     append(bytes.Clone(b), 0),
		// No pairs and no statistics: a width no model has.
		"width of nothing": append(append(bytes.Clone(empty[:counts+8]), 3), empty[counts+9:]...),
	} {
		if _, _, err := Decode(data); !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", name, err)
		}
	}
	// The pass-through normaliser and explicit hyper-parameters are legal.
	m := synthModel(t)
	m.Norm, m.KNeighbours, m.BetaValue = &features.Normalizer{}, 3, 0.5
	if b, err = Encode(m, testInfo()); err == nil {
		_, _, err = Decode(b)
	}
	if err != nil {
		t.Errorf("legal model refused: %v", err)
	}
}

// FuzzModelDecode fuzzes Decode: any input fails typed or decodes to a
// model and info that re-encode to exactly the input bytes, and the
// decode allocates within a small multiple of the input.
func FuzzModelDecode(f *testing.F) {
	x := make([]float64, 3)
	var g Dist
	g.Theta[0][1], g.Theta[opt.NumDims-1][3] = 0.5, 1
	for _, m := range []*Model{
		Train([]TrainingPair{{Prog: "crc", X: x, G: g}, {Prog: "qsort", Arch: 2, X: []float64{1, 2, 4}}}),
		{Norm: &features.Normalizer{}, Pairs: []TrainingPair{{Prog: "gsm", X: x}}, KNeighbours: 2, BetaValue: 0.5},
		Train(nil),
	} {
		b, err := Encode(m, testInfo())
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(b), len(b) - 1, len(b) / 2, len(artifactMagic) + 8 + 24, 3} {
			f.Add(bytes.Clone(b[:n]))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, info, err := Decode(b)
		runtime.ReadMemStats(&ms)
		if used, limit := ms.TotalAlloc-before, uint64(4*len(b)+64<<10); used > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(b), used, limit)
		}
		if err != nil {
			if !errors.Is(err, pcerr.ErrInvalidConfig) && !errors.Is(err, pcerr.ErrModelVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := Encode(m, info)
		if err != nil {
			t.Fatalf("decoded model does not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%x re-encodes as %x", b, again)
		}
	})
}

func TestLoadMissingFile(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "nope.bin"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs not-exist", err)
	}
}
