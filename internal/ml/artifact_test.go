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
	var buf bytes.Buffer
	if err := Encode(&buf, m, testInfo()); err != nil {
		t.Fatal(err)
	}
	got, info, err := Decode(bytes.NewReader(buf.Bytes()))
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
	var a, b bytes.Buffer
	if err := Encode(&a, m, testInfo()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, m, testInfo()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-encoding the same model produced different bytes")
	}
	decoded, info, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Encode(&c, decoded, info); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("decode + re-encode produced different bytes")
	}
}

func TestArtifactSaveLoad(t *testing.T) {
	m := synthModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
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

func TestArtifactVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(artifactHeader{Magic: artifactMagic, Version: FormatVersion + 1}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Decode(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, pcerr.ErrModelVersion) {
		t.Fatalf("future-version artifact: err = %v, want ErrModelVersion", err)
	}
}

func TestArtifactForeignFile(t *testing.T) {
	for name, data := range map[string][]byte{
		"garbage": []byte("not a gob stream at all"),
		"empty":   nil,
	} {
		_, _, err := Decode(bytes.NewReader(data))
		if !errors.Is(err, pcerr.ErrModelVersion) {
			t.Errorf("%s: err = %v, want ErrModelVersion", name, err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(artifactHeader{Magic: "something-else", Version: FormatVersion}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, pcerr.ErrModelVersion) {
		t.Errorf("wrong magic: err = %v, want ErrModelVersion", err)
	}
}

// TestDecodeValidatesModel: each row encodes cleanly and used to decode
// with a nil error, then panic in Predict (a nil normaliser) or in
// features.Distance (a short vector) - inside a daemon, since the
// prediction server hot-reloads whatever Decode accepts.
func TestDecodeValidatesModel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m *Model)
	}{
		{"nil normaliser", func(m *Model) { m.Norm = nil }},
		{"normaliser arrays disagree", func(m *Model) { m.Norm.Std = m.Norm.Std[:3] }},
		{"short feature vector", func(m *Model) { m.Pairs[1].X = m.Pairs[1].X[:1] }},
		{"short feature vector, pass-through normaliser", func(m *Model) {
			m.Norm = &features.Normalizer{}
			m.Pairs[1].X = m.Pairs[1].X[:1]
		}},
		{"negative neighbour count", func(m *Model) { m.KNeighbours = -1 }},
		{"negative beta", func(m *Model) { m.BetaValue = -1 }},
		{"NaN beta", func(m *Model) { m.BetaValue = math.NaN() }},
		{"infinite beta", func(m *Model) { m.BetaValue = math.Inf(1) }},
	} {
		m := synthModel(t)
		tc.mutate(m)
		var buf bytes.Buffer
		if err := Encode(&buf, m, testInfo()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, _, err := Decode(&buf); !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
	// The pass-through normaliser and explicit hyper-parameters are legal.
	m := synthModel(t)
	m.Norm, m.KNeighbours, m.BetaValue = &features.Normalizer{}, 3, 0.5
	var buf bytes.Buffer
	if err := Encode(&buf, m, testInfo()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(&buf); err != nil {
		t.Errorf("legal model refused: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "nope.gob"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs not-exist", err)
	}
}
