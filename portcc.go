// Package portcc is a portable optimising compiler: a reproduction of
// "Portable Compiler Optimisation Across Embedded Programs and
// Microarchitectures using Machine Learning" (Dubach, Jones, Bonilla,
// Fursin, O'Boyle - MICRO 2009) as a self-contained Go library.
//
// The library contains the paper's entire experimental stack: a compiler
// with the gcc 4.2 optimisation space of the paper's Figure 3, the 35
// MiBench-equivalent benchmark programs, an XScale-class trace-driven
// simulator with the Table 1 performance counters over the Table 2
// microarchitecture design space, the machine-learning model of Section 3,
// the iterative-compilation baselines, and drivers that regenerate every
// table and figure of the evaluation.
//
// # Quick start
//
// The entry point is a Session, configured with functional options; every
// long-running method takes a context and stops promptly - draining its
// workers - on cancellation:
//
//	ctx := context.Background()
//	s := portcc.NewSession(portcc.WithWorkers(4))
//	result, err := s.Run(ctx, "rijndael_e", portcc.O3(), portcc.XScale())
//
// To use the learned model end-to-end (Figure 2's deployment path):
//
//	s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()))
//	ds, _ := s.GenerateDataset(ctx, false)
//	model, _ := portcc.TrainModel(ds)
//	cfg, _ := s.OptimizeFor(ctx, "rijndael_e", arch, model) // one -O3 profile run + prediction
//
// Design-space exploration streams results as grid cells complete, over a
// bounded worker pool:
//
//	req, _ := s.NewExploreRequest(false)
//	for res, err := range s.Explore(ctx, req) {
//		if err != nil { ... } // typed: SimError, PartialError, ErrUnknownProgram, ...
//		use(res)
//	}
//
// Errors discriminate with errors.Is/As against the typed vocabulary in
// errors.go.
package portcc

import (
	"portcc/internal/codegen"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/experiments"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/uarch"
)

// Re-exported configuration types.
type (
	// OptConfig is one point of the compiler optimisation space
	// (30 boolean flags plus 9 parameters; Figure 3).
	OptConfig = opt.Config
	// Arch is one microarchitecture configuration (Table 2).
	Arch = uarch.Config
	// RunResult carries cycles and the Table 1 performance counters.
	RunResult = cpu.Result
	// Model is the trained predictive model of Section 3.
	Model = ml.Model
	// Dataset is the training data of Section 3.2.
	Dataset = dataset.Dataset
	// Scale selects experiment sampling sizes.
	Scale = experiments.Scale
	// Binary is a placed program image.
	Binary = codegen.Program
)

// O3 returns the highest default optimisation level, the paper's baseline.
func O3() OptConfig { return opt.O3() }

// XScale returns the Intel XScale reference microarchitecture.
func XScale() Arch { return uarch.XScale() }

// Programs returns the 35 benchmark names in the paper's Figure 4 order.
func Programs() []string { return prog.Names() }

// Scales.
func TinyScale() Scale   { return experiments.Tiny }
func SmallScale() Scale  { return experiments.Small }
func MediumScale() Scale { return experiments.Medium }
func PaperScale() Scale  { return experiments.Paper }

// TrainModel fits the paper's model on a dataset: per-pair IID
// distributions over the good optimisation settings, combined at
// prediction time by KNN in feature space.
func TrainModel(ds *Dataset) (*Model, error) {
	pairs, err := ds.TrainingPairs()
	if err != nil {
		return nil, err
	}
	return ml.Train(pairs), nil
}
