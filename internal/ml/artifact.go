package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"portcc/internal/features"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
)

// FormatVersion is the model artifact layout version. Bump it whenever
// the layout changes; Decode refuses other versions with
// pcerr.ErrModelVersion.
const FormatVersion = 2

// artifactMagic opens every model artifact.
const artifactMagic = "portcc-model"

// ArtifactInfo is the metadata embedded in a saved model artifact,
// tracing it back to the dataset it was trained from. The dataset
// package cannot be imported here (it imports ml), so the generation
// config crosses as plain fields rather than a dataset.GenConfig.
type ArtifactInfo struct {
	// DatasetSHA256 is the hex sha256 of the training dataset's canonical
	// Save byte stream (dataset.Fingerprint), tying the artifact to the
	// exact data it was fitted on.
	DatasetSHA256 string
	// TrainConfig is a one-line human-readable description of the
	// dataset generation config (programs, sample counts, seeds).
	TrainConfig string
	// Grid dimensions of the training dataset.
	Programs, Archs, Opts int
	// Extended marks the Section 7 space (frequency and issue width).
	Extended bool
	// Seed is the dataset sampling seed.
	Seed int64
	// Profiling workload parameters of the training runs. Deployment
	// must profile with the same parameters or the measured counters -
	// and therefore the feature vectors - would not be comparable to the
	// training distribution (zero values select evaluator defaults).
	EvalTargetInsns, EvalMaxInsns int
	EvalSeed                      int64
	// Pairs is the training-pair count (len(Model.Pairs), denormalised
	// for inspection without decoding the model).
	Pairs int
}

// artifactHead is an artifact's fixed start: magic, version, counts,
// the length of the info's JSON and the hyper-parameters. The info
// follows, then the pairs' program names, each ended by a newline; the
// normaliser's means and deviations (Dim each if Stats is 1, none if it
// passes vectors through); each pair's Arch; each pair's X (Dim each);
// each pair's G.Theta, row l cut to its opt.DimSize(l) live entries.
// Every number is little-endian, a float as its IEEE bits.
type artifactHead struct {
	Magic             [len(artifactMagic)]byte
	Version           uint64
	Pairs, Dim, Stats uint64
	Info, Names       uint64 // byte lengths
	KNeighbours       int64
	Beta              float64
}

// liveTheta is how many Dist.Theta entries of a pair an artifact holds:
// opt.DimSize(l) of each row l, the rest being zero.
const liveTheta = uint64(2*opt.NumFlags + opt.ParamLevelCount*opt.NumParams)

// Encode returns the model's artifact bytes; the same model and info
// always give the same bytes. A model the layout cannot hold - no
// normaliser, or vectors of differing widths - fails with
// pcerr.ErrInvalidConfig.
func Encode(m *Model, info ArtifactInfo) ([]byte, error) {
	if m == nil || m.Norm == nil || len(m.Norm.Std) != len(m.Norm.Mean) {
		return nil, fmt.Errorf("ml: %w: a model without a sound normaliser", pcerr.ErrInvalidConfig)
	}
	info.Pairs = len(m.Pairs)
	j, _ := json.Marshal(info) // strings, ints and a bool: it cannot fail
	h := artifactHead{Magic: [len(artifactMagic)]byte([]byte(artifactMagic)), Version: FormatVersion, Pairs: uint64(len(m.Pairs)),
		Dim: uint64(len(m.Norm.Mean)), Info: uint64(len(j)), KNeighbours: int64(m.KNeighbours), Beta: m.BetaValue}
	if h.Stats = min(h.Dim, 1); h.Dim == 0 && len(m.Pairs) > 0 {
		h.Dim = uint64(len(m.Pairs[0].X))
	}
	names, archs, xs, theta := []byte(nil), make([]int64, 0, h.Pairs), make([]float64, 0, h.Pairs*h.Dim), make([]float64, 0, h.Pairs*liveTheta)
	for i := range m.Pairs {
		p := &m.Pairs[i]
		if len(p.X) != int(h.Dim) {
			return nil, fmt.Errorf("ml: %w: pair %d has %d features, want %d", pcerr.ErrInvalidConfig, i, len(p.X), h.Dim)
		}
		names, archs, xs = append(append(names, p.Prog...), '\n'), append(archs, int64(p.Arch)), append(xs, p.X...)
		for l := range p.G.Theta {
			theta = append(theta, p.G.Theta[l][:opt.DimSize(l)]...)
		}
	}
	h.Names = uint64(len(names))
	b, _ := binary.Append(nil, binary.LittleEndian, &h) // fixed-size values: it cannot fail
	for _, x := range []any{j, names, m.Norm.Mean, m.Norm.Std, archs, xs, theta} {
		b, _ = binary.Append(b, binary.LittleEndian, x) // likewise
	}
	return b, nil
}

// Decode reads an artifact's bytes. Another layout - a version 1 (gob)
// artifact, another version, a foreign file - fails with
// pcerr.ErrModelVersion, a malformed one, or one whose hyper-parameters
// Mixture cannot use, with pcerr.ErrInvalidConfig. The counts must
// account for every byte before anything is allocated, so a decode
// allocates within a small multiple of len(b), and an accepted b is
// exactly what Encode gives for the model and info returned.
func Decode(b []byte) (*Model, ArtifactInfo, error) {
	var h artifactHead
	var info ArtifactInfo
	n, err := binary.Decode(b, binary.LittleEndian, &h)
	if err != nil || string(h.Magic[:]) != artifactMagic {
		return nil, info, fmt.Errorf("ml: not a version %d model artifact (a version 1 gob, or foreign): %w", FormatVersion, pcerr.ErrModelVersion)
	}
	if h.Version != FormatVersion {
		return nil, info, fmt.Errorf("ml: artifact version %d, this build reads version %d: %w", h.Version, FormatVersion, pcerr.ErrModelVersion)
	}
	b = b[n:]
	// A normaliser is Dim wide or passes vectors through; with neither
	// statistics nor pairs there is no width.
	rest, pair := uint64(len(b)), 8*(1+h.Dim+liveTheta)
	if h.Stats > 1 || h.Stats == 1 && h.Dim == 0 || h.Stats == 0 && h.Pairs == 0 && h.Dim != 0 || h.Info > rest || h.Names > rest ||
		h.Dim > rest/8 || h.Pairs > rest/pair || h.Info+h.Names+16*h.Stats*h.Dim+h.Pairs*pair != rest {
		return nil, info, fmt.Errorf("ml: %w: %d pairs of %d features in a %d-byte artifact body", pcerr.ErrInvalidConfig, h.Pairs, h.Dim, rest)
	}
	err = json.Unmarshal(b[:h.Info], &info)
	again, _ := json.Marshal(info) // as in Encode
	names := strings.Split(string(b[h.Info:h.Info+h.Names]), "\n")
	if err != nil || !bytes.Equal(again, b[:h.Info]) || info.Pairs != int(h.Pairs) || len(names) != info.Pairs+1 || names[info.Pairs] != "" {
		return nil, ArtifactInfo{}, fmt.Errorf("ml: %w: artifact info or program names malformed (%v)", pcerr.ErrInvalidConfig, err)
	}
	if h.KNeighbours < 0 || !(h.Beta >= 0) || math.IsInf(h.Beta, 0) {
		return nil, ArtifactInfo{}, fmt.Errorf("ml: %w: artifact has neighbour count %d, beta %v", pcerr.ErrInvalidConfig, h.KNeighbours, h.Beta)
	}
	m := &Model{Norm: &features.Normalizer{}, KNeighbours: int(h.KNeighbours), BetaValue: h.Beta}
	if h.Stats == 1 {
		m.Norm.Mean, m.Norm.Std = make([]float64, h.Dim), make([]float64, h.Dim)
	}
	archs, xs, theta := make([]int64, h.Pairs), make([]float64, h.Pairs*h.Dim), make([]float64, h.Pairs*liveTheta)
	b = b[h.Info+h.Names:]
	for _, x := range []any{m.Norm.Mean, m.Norm.Std, archs, xs, theta} {
		n, _ := binary.Decode(b, binary.LittleEndian, x) // the length check left room
		b = b[n:]
	}
	m.Pairs = make([]TrainingPair, h.Pairs)
	for i, dim := 0, int(h.Dim); i < len(m.Pairs); i++ {
		p := &m.Pairs[i]
		p.Prog, p.Arch, p.X = names[i], int(archs[i]), xs[i*dim:(i+1)*dim:(i+1)*dim]
		for l := range p.G.Theta {
			theta = theta[copy(p.G.Theta[l][:opt.DimSize(l)], theta):]
		}
	}
	m.index()
	return m, info, nil
}

// Save writes the model artifact to path (see Encode).
func Save(path string, m *Model, info ArtifactInfo) error {
	b, err := Encode(m, info)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// Load reads a model artifact written by Save.
func Load(path string) (*Model, ArtifactInfo, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, ArtifactInfo{}, err
	}
	m, info, err := Decode(b)
	if err != nil {
		return nil, ArtifactInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, info, nil
}
