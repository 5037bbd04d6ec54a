package experiments

import (
	"context"
	"fmt"
	"slices"

	"portcc/internal/dataset"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
)

// Predictions holds the leave-one-out model evaluation over a dataset:
// for every (program, microarchitecture) pair, the configuration the model
// predicts when trained without that program and without that
// microarchitecture (Section 5.1.1), and its measured speedup over -O3.
type Predictions struct {
	DS *dataset.Dataset
	// Config[p][a] is the predicted-best setting.
	Config [][]opt.Config
	// Speedup[p][a] is its measured speedup over -O3.
	Speedup [][]float64
	// Best[p][a] caches the dataset's iterative-compilation upper bound.
	Best [][]float64
}

// Predict runs the full leave-one-out protocol: fit training pairs, and
// for each held-out pair predict, compile, and measure, on the in-process
// worker pool. Cancelling ctx drains the pool and returns an error
// wrapping ctx.Err().
func Predict(ctx context.Context, ds *dataset.Dataset) (*Predictions, error) {
	return PredictWith(ctx, ds, 0, 0, dataset.ExploreOptions{})
}

// PredictWith is Predict with explicit KNN hyper-parameters (zero values
// select the paper's K=7 and beta=1), for the ablation experiments, and
// the measurements' execution options (workers, shards, result store).
func PredictWith(ctx context.Context, ds *dataset.Dataset, k int, beta float64, o dataset.ExploreOptions) (*Predictions, error) {
	pairs, err := ds.TrainingPairs()
	if err != nil {
		return nil, err
	}
	model := ml.Train(pairs)
	model.KNeighbours = k
	model.BetaValue = beta
	return PredictWithModel(ctx, ds, model, o)
}

// PredictWithModel is PredictWith with an already-trained model (for
// example one loaded from a trainer -model-out artifact): no ml.Train
// call runs. Leave-one-out exclusion still holds - the model carries
// every training pair and the held-out (program, arch) is excluded per
// prediction - so the model must have been trained on this dataset
// (compare the artifact's dataset fingerprint before calling).
//
// Each program's row is one dataset.Explore grid under o, program after
// program: the program, its distinct predictions in first-seen order,
// every architecture of the dataset.
func PredictWithModel(ctx context.Context, ds *dataset.Dataset, model *ml.Model, o dataset.ExploreOptions) (*Predictions, error) {
	nP, nA, _ := ds.Dims()
	if nP > 0 && nA > 0 && model.Dim() != len(ds.Features[0][0]) {
		return nil, fmt.Errorf("experiments: %w: model has %d-wide feature vectors, the dataset's are %d wide",
			pcerr.ErrInvalidConfig, model.Dim(), len(ds.Features[0][0]))
	}
	pr := &Predictions{
		DS:      ds,
		Config:  make([][]opt.Config, nP),
		Speedup: make([][]float64, nP),
		Best:    make([][]float64, nP),
	}
	for p := range nP {
		if err := predictProgram(ctx, ds, model, o, pr, p); err != nil {
			return nil, fmt.Errorf("experiments: evaluating predictions for %s: %w", ds.Programs[p], err)
		}
	}
	return pr, nil
}

// predictProgram fills one program's row of the leave-one-out evaluation:
// predict per architecture, then measure the distinct predictions over
// every architecture, each architecture reading the cell of its own.
func predictProgram(ctx context.Context, ds *dataset.Dataset, model *ml.Model, o dataset.ExploreOptions, pr *Predictions, p int) error {
	_, nA, _ := ds.Dims()
	pr.Config[p] = make([]opt.Config, nA)
	pr.Speedup[p] = make([]float64, nA)
	pr.Best[p] = make([]float64, nA)
	chose := make([]int, nA) // each architecture's prediction, as an index into settings
	var settings []opt.Config
	for a := range nA {
		cfg := model.Predict(ds.Features[p][a], ml.WithExclude(ds.Programs[p], a))
		pr.Config[p][a] = cfg
		i := slices.Index(settings, cfg)
		if i < 0 {
			i = len(settings)
			settings = append(settings, cfg)
		}
		chose[a] = i
		pr.Best[p][a], _ = ds.BestSpeedup(p, a)
	}
	req := dataset.ExploreRequest{Programs: ds.Programs[p : p+1], Opts: settings, Archs: ds.Archs, Eval: ds.Cfg.Eval}
	for res, err := range dataset.Explore(ctx, req, o) {
		if err != nil {
			return err
		}
		for a, i := range chose {
			if i == res.OptIndex {
				cyc := float64(res.Results[a].Cycles) / float64(res.Runs)
				pr.Speedup[p][a] = ds.BaselineCycles[p][a] / cyc
			}
		}
	}
	return nil
}
