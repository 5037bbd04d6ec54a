package portcc

import (
	"portcc/internal/dataset"
	"portcc/internal/ml"
)

// Model artifacts turn a trained predictor into a versioned, reusable
// file: train once (cmd/trainer -model-out), then deploy everywhere -
// cmd/portcc -model compiles with zero retraining, and cmd/portccs
// serves predictions over HTTP. The artifact embeds the sha256
// fingerprint of its training dataset and the generation config, so any
// consumer can trace (and verify) exactly what a model was fitted on.

// ModelInfo is the metadata embedded in a model artifact: the training
// dataset's fingerprint and generation config, the profiling workload
// parameters deployment must reuse, and the training-pair count.
type ModelInfo = ml.ArtifactInfo

// EvalConfig carries the profiling workload parameters (trace length,
// caps, seed) of an evaluator; see WithEvalConfig.
type EvalConfig = dataset.EvalConfig

// WithEvalConfig fixes the session's profiling workload parameters
// directly instead of deriving them from a Scale. Use it when deploying
// a pre-trained model: profiling with the artifact's embedded parameters
// (ModelEval) keeps the measured feature vectors comparable to the
// training distribution. Takes precedence over WithScale.
func WithEvalConfig(e EvalConfig) Option {
	return func(c *sessionConfig) { c.eval, c.evalSet = e, true }
}

// ModelEval reconstructs the profiling workload parameters embedded in
// a model artifact, ready for WithEvalConfig.
func ModelEval(info ModelInfo) EvalConfig { return dataset.ArtifactEval(info) }

// SaveModel writes a trained model as a versioned artifact, embedding
// the dataset's fingerprint and generation config so the artifact is
// traceable to its training data, and returns the embedded metadata.
// Saving the same model twice produces byte-identical files.
func SaveModel(path string, m *Model, ds *Dataset) (ModelInfo, error) {
	info, err := modelInfo(ds)
	if err != nil {
		return ModelInfo{}, err
	}
	if err := ml.Save(path, m, info); err != nil {
		return ModelInfo{}, err
	}
	info.Pairs = len(m.Pairs)
	return info, nil
}

// modelInfo derives the artifact metadata from the training dataset.
func modelInfo(ds *Dataset) (ModelInfo, error) {
	fp, err := ds.Fingerprint()
	if err != nil {
		return ModelInfo{}, err
	}
	nP, nA, nO := ds.Dims()
	return ModelInfo{
		DatasetSHA256:   fp,
		TrainConfig:     ds.Cfg.Describe(),
		Programs:        nP,
		Archs:           nA,
		Opts:            nO,
		Extended:        ds.Cfg.Extended,
		Seed:            ds.Cfg.Seed,
		EvalTargetInsns: ds.Cfg.Eval.TargetInsns,
		EvalMaxInsns:    ds.Cfg.Eval.MaxInsns,
		EvalSeed:        ds.Cfg.Eval.Seed,
	}, nil
}

// LoadModel reads a model artifact written by SaveModel. Files without
// a matching header - foreign files or artifacts from a different
// schema version - fail with an error wrapping ErrModelVersion.
func LoadModel(path string) (*Model, ModelInfo, error) {
	return ml.Load(path)
}
