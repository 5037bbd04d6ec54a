// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 2, 4, 5, 6 and 7): the drivers produce structured
// results plus a textual rendering that mirrors what the paper reports.
//
// Every driver accepts a Scale. The Paper scale replicates the published
// protocol exactly (35 programs x 200 microarchitectures x 1000
// optimisation settings = 7 million simulations); the smaller scales keep
// the identical protocol with reduced sampling so the full pipeline runs
// in seconds (Tiny) or minutes (Small, Medium) on one core. Results are
// expected to match the paper in shape, not in digits - see EXPERIMENTS.md.
package experiments

import (
	"context"

	"portcc/internal/dataset"
	"portcc/internal/prog"
)

// Scale selects the sampling sizes of an experiment run.
type Scale struct {
	Name string
	// Programs included (nil = all 35).
	Programs []string
	// NumArchs and NumOpts follow Section 4 (paper: 200 and 1000).
	NumArchs int
	NumOpts  int
	// TargetInsns is the dynamic trace length per simulation.
	TargetInsns int
	// Seed drives all sampling.
	Seed int64
}

// The standard scales.
var (
	// Tiny runs in a few seconds: for tests.
	Tiny = Scale{Name: "tiny", Programs: []string{
		"rijndael_e", "search", "qsort", "susan_s", "madplay", "crc", "fft", "bitcnts",
	}, NumArchs: 5, NumOpts: 24, TargetInsns: 8_000, Seed: 11}
	// Small runs in about a minute: the benchmark default.
	Small = Scale{Name: "small", NumArchs: 12, NumOpts: 60, TargetInsns: 20_000, Seed: 11}
	// Medium runs in some minutes: for calibration.
	Medium = Scale{Name: "medium", NumArchs: 24, NumOpts: 150, TargetInsns: 25_000, Seed: 11}
	// Paper is the published protocol (hours on one core).
	Paper = Scale{Name: "paper", NumArchs: 200, NumOpts: 1000, TargetInsns: 30_000, Seed: 11}
)

// ScaleByName resolves the standard scales by their command-line names.
func ScaleByName(name string) (Scale, bool) {
	s, ok := map[string]Scale{
		Tiny.Name: Tiny, Small.Name: Small, Medium.Name: Medium, Paper.Name: Paper,
	}[name]
	return s, ok
}

// GenConfig converts the scale into a dataset generation config.
func (s Scale) GenConfig(extended bool) dataset.GenConfig {
	progs := s.Programs
	if progs == nil {
		progs = prog.Names()
	}
	return dataset.GenConfig{
		Programs: progs,
		NumArchs: s.NumArchs,
		NumOpts:  s.NumOpts,
		Extended: extended,
		Seed:     s.Seed,
		Eval:     dataset.EvalConfig{TargetInsns: s.TargetInsns, Seed: 1},
	}
}

// Generate produces the dataset for the scale, honouring ctx through the
// streaming exploration engine.
func (s Scale) Generate(ctx context.Context, extended bool) (*dataset.Dataset, error) {
	return dataset.Generate(ctx, s.GenConfig(extended))
}
