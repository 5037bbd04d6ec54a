package ml

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"portcc/internal/pcerr"
)

// FormatVersion is the model artifact schema version. Bump it whenever
// the gob layout of Model (or anything it embeds) changes incompatibly;
// Load refuses mismatching files with pcerr.ErrModelVersion instead of
// surfacing a confusing mid-stream gob decode error.
const FormatVersion = 1

// artifactMagic identifies a versioned portcc model artifact file.
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

// artifactHeader precedes the artifact body in the gob stream,
// mirroring the dataset file header.
type artifactHeader struct {
	Magic   string
	Version int
}

// artifactBody is the versioned payload: metadata first (cheap to
// inspect), then the model itself.
type artifactBody struct {
	Info  ArtifactInfo
	Model Model
}

// pinGob assigns the artifact types their gob wire type ids in one fixed
// order. Gob draws type ids from a process-global counter at first use,
// so encodes are byte-deterministic only from the first pin onwards;
// Encode and Decode both pin, and the portcc facade pins at init - after
// the dataset package's own init pinning, which must keep its ids (the
// golden dataset digests depend on them). Within a process, re-encoding
// the same model is always byte-identical.
var pinGob = sync.Once{}

// PinGobTypes fixes the artifact types' gob wire ids now. The portcc
// facade calls it at init so every binary that can write artifacts
// assigns the same ids regardless of what it gob-encodes first at
// runtime, keeping artifact bytes reproducible across processes.
func PinGobTypes() {
	pinGob.Do(func() {
		enc := gob.NewEncoder(io.Discard)
		enc.Encode(artifactHeader{})
		enc.Encode(artifactBody{})
	})
}

// Encode writes the model as a versioned artifact to w. Encoding is
// deterministic: the same model and info produce the same bytes, so a
// re-saved artifact byte-compares equal to the original.
func Encode(w io.Writer, m *Model, info ArtifactInfo) error {
	if m == nil {
		return fmt.Errorf("ml: nil model")
	}
	PinGobTypes()
	info.Pairs = len(m.Pairs)
	enc := gob.NewEncoder(w)
	if err := enc.Encode(artifactHeader{Magic: artifactMagic, Version: FormatVersion}); err != nil {
		return err
	}
	return enc.Encode(artifactBody{Info: info, Model: *m})
}

// Decode reads an artifact written by Encode. Streams without a matching
// header - pre-versioning files, foreign files, or artifacts from a
// different schema version - fail with an error wrapping
// pcerr.ErrModelVersion.
func Decode(r io.Reader) (*Model, ArtifactInfo, error) {
	PinGobTypes()
	dec := gob.NewDecoder(r)
	var h artifactHeader
	// A foreign gob stream either fails to decode into the header or
	// decodes with the wrong magic; both surface as version mismatches,
	// with the decode cause preserved for diagnosis.
	if err := dec.Decode(&h); err != nil {
		return nil, ArtifactInfo{}, fmt.Errorf("ml: no artifact header (foreign or corrupt file): %w (%w)", pcerr.ErrModelVersion, err)
	}
	if h.Magic != artifactMagic {
		return nil, ArtifactInfo{}, fmt.Errorf("ml: no artifact header (foreign file): %w", pcerr.ErrModelVersion)
	}
	if h.Version != FormatVersion {
		return nil, ArtifactInfo{}, fmt.Errorf("ml: artifact version %d, this build reads version %d: %w",
			h.Version, FormatVersion, pcerr.ErrModelVersion)
	}
	var b artifactBody
	if err := dec.Decode(&b); err != nil {
		return nil, ArtifactInfo{}, err
	}
	if err := b.Model.validate(); err != nil {
		return nil, ArtifactInfo{}, err
	}
	b.Model.index()
	return &b.Model, b.Info, nil
}

// validate checks what Mixture indexes without looking: gob guarantees
// the types of a decoded model, not that it has a normaliser or that
// its vectors agree in length, and a prediction server hot-reloads
// whatever Decode accepts.
func (m *Model) validate() error {
	if m.Norm == nil {
		return fmt.Errorf("ml: %w: artifact has no normaliser", pcerr.ErrInvalidConfig)
	}
	dim := len(m.Norm.Mean)
	if len(m.Norm.Std) != dim {
		return fmt.Errorf("ml: %w: artifact normaliser has %d means and %d deviations", pcerr.ErrInvalidConfig, dim, len(m.Norm.Std))
	}
	if dim == 0 && len(m.Pairs) > 0 {
		// Apply passes vectors through unscaled; they must still agree.
		dim = len(m.Pairs[0].X)
	}
	for i := range m.Pairs {
		if len(m.Pairs[i].X) != dim {
			return fmt.Errorf("ml: %w: artifact pair %d has a feature vector of length %d, want %d", pcerr.ErrInvalidConfig, i, len(m.Pairs[i].X), dim)
		}
	}
	if m.KNeighbours < 0 {
		return fmt.Errorf("ml: %w: artifact has neighbour count %d", pcerr.ErrInvalidConfig, m.KNeighbours)
	}
	if !(m.BetaValue >= 0) || math.IsInf(m.BetaValue, 0) {
		return fmt.Errorf("ml: %w: artifact has beta %v", pcerr.ErrInvalidConfig, m.BetaValue)
	}
	return nil
}

// Save writes the model artifact to path (see Encode).
func Save(path string, m *Model, info ArtifactInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, m, info); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a model artifact written by Save.
func Load(path string) (*Model, ArtifactInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ArtifactInfo{}, err
	}
	defer f.Close()
	m, info, err := Decode(f)
	if err != nil {
		return nil, ArtifactInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	return m, info, nil
}
