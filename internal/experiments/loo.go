package experiments

import (
	"context"
	"fmt"

	"portcc/internal/dataset"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/sched"
	"portcc/internal/tune"
	"portcc/internal/uarch"
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
// for each held-out pair predict, compile, and measure. Predicted
// configurations are deduplicated per program so each distinct binary is
// compiled and traced once. Cancelling ctx drains the worker pool and
// returns an error wrapping ctx.Err().
func Predict(ctx context.Context, ds *dataset.Dataset) (*Predictions, error) {
	return PredictWith(ctx, ds, 0, 0, 0)
}

// PredictWith is Predict with explicit KNN hyper-parameters (zero values
// select the paper's K=7 and beta=1), for the ablation experiments, and
// an explicit worker-pool bound (0 = GOMAXPROCS).
func PredictWith(ctx context.Context, ds *dataset.Dataset, k int, beta float64, workers int) (*Predictions, error) {
	pairs, err := ds.TrainingPairs()
	if err != nil {
		return nil, err
	}
	model := ml.Train(pairs)
	model.KNeighbours = k
	model.BetaValue = beta
	return PredictWithModel(ctx, ds, model, workers)
}

// PredictWithModel is PredictWith with an already-trained model (for
// example one loaded from a trainer -model-out artifact): no ml.Train
// call runs. Leave-one-out exclusion still holds - the model carries
// every training pair and the held-out (program, arch) is excluded per
// prediction - so the model must have been trained on this dataset
// (compare the artifact's dataset fingerprint before calling).
func PredictWithModel(ctx context.Context, ds *dataset.Dataset, model *ml.Model, workers int) (*Predictions, error) {
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
	// The per-program evaluations are independent: the shared worker
	// pool spreads the compile + batched-replay work over the machine,
	// one evaluator per slot (no trace cache: each trace is generated
	// into a buffer sized from the program's -O3 probe) over one pool
	// base holding the per-program baseline slots. Cores the program
	// fan-out cannot occupy (fewer held-out programs than the budget) go
	// to each slot's batched-replay sweeps instead - tune.Split sizes
	// the two levels so they multiply to the machine, never beyond.
	// sched.Run reports the lowest-indexed failure deterministically; a
	// real failure outranks cancellation, which names the broken program
	// instead of hiding it behind a PartialError.
	workers, sweepWorkers := tune.Split(workers, nP, nA)
	base := dataset.NewSharedBase()
	evs := make([]*dataset.Evaluator, workers)
	done, firstE := sched.Run(ctx, workers, nP, func(slot, p int) error {
		if evs[slot] == nil {
			evs[slot] = dataset.NewEvaluatorWith(ds.Cfg.Eval, base)
			evs[slot].SetSweepWorkers(sweepWorkers)
		}
		return predictProgram(ds, model, evs[slot], pr, p)
	})
	if firstE != nil {
		return nil, firstE
	}
	// A cancellation racing the final program must not discard a fully
	// completed evaluation.
	if err := ctx.Err(); err != nil && done < nP {
		return nil, &pcerr.PartialError{Done: done, Total: nP, Err: err}
	}
	return pr, nil
}

// predictProgram fills one program's row of the leave-one-out evaluation:
// predict per architecture, deduplicate the predicted configurations, and
// compile + batch-replay each distinct binary over the architectures that
// chose it.
func predictProgram(ds *dataset.Dataset, model *ml.Model, ev *dataset.Evaluator, pr *Predictions, p int) error {
	_, nA, _ := ds.Dims()
	pr.Config[p] = make([]opt.Config, nA)
	pr.Speedup[p] = make([]float64, nA)
	pr.Best[p] = make([]float64, nA)
	groups := map[opt.Config][]int{}
	var order []opt.Config // distinct predictions, first architecture first
	for a := 0; a < nA; a++ {
		cfg := model.Predict(ds.Features[p][a], ml.WithExclude(ds.Programs[p], a))
		pr.Config[p][a] = cfg
		if _, ok := groups[cfg]; !ok {
			order = append(order, cfg)
		}
		groups[cfg] = append(groups[cfg], a)
		pr.Best[p][a], _ = ds.BestSpeedup(p, a)
	}
	for _, cfg := range order {
		archIdx := groups[cfg]
		tr, _, err := ev.Trace(ds.Programs[p], &cfg)
		if err != nil {
			return fmt.Errorf("experiments: evaluating prediction for %s: %w", ds.Programs[p], err)
		}
		runs := tr.Runs
		if runs < 1 {
			runs = 1
		}
		archs := make([]uarch.Config, len(archIdx))
		for i, a := range archIdx {
			archs[i] = ds.Archs[a]
		}
		results := ev.SimulateBatch(tr, archs)
		for i, a := range archIdx {
			cyc := float64(results[i].Cycles) / float64(runs)
			pr.Speedup[p][a] = ds.BaselineCycles[p][a] / cyc
		}
	}
	return nil
}
