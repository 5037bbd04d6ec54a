package experiments

import (
	"context"
	"fmt"
	"strings"

	"portcc/internal/dataset"
)

// AblationResult reproduces the paper's Section 3.3.2 hyper-parameter
// claim: "we have set beta = 1 and K = 7 different neighbour programs,
// although we have found experimentally that the technique is not
// sensitive to similar values of K". For each K (and beta) the full
// leave-one-out evaluation is repeated and the average model speedup
// recorded.
type AblationResult struct {
	Ks     []int
	KAvg   []float64
	Betas  []float64
	BetaAv []float64
}

// Ablation sweeps K (at beta=1) and beta (at K=7) over a dataset,
// measuring each leave-one-out evaluation under o (see PredictWithModel):
// with a result store, a prediction repeated across K is replayed once.
func Ablation(ctx context.Context, ds *dataset.Dataset, o dataset.ExploreOptions) (*AblationResult, error) {
	res := &AblationResult{
		Ks:    []int{3, 5, 7, 9, 15},
		Betas: []float64{0.5, 1, 2},
	}
	avg := func(pr *Predictions) float64 {
		nP, nA, _ := ds.Dims()
		s := 0.0
		for p := 0; p < nP; p++ {
			for a := 0; a < nA; a++ {
				s += pr.Speedup[p][a]
			}
		}
		return s / float64(nP*nA)
	}
	for _, k := range res.Ks {
		pr, err := PredictWith(ctx, ds, k, 1, o)
		if err != nil {
			return nil, err
		}
		res.KAvg = append(res.KAvg, avg(pr))
	}
	for _, b := range res.Betas {
		pr, err := PredictWith(ctx, ds, 7, b, o)
		if err != nil {
			return nil, err
		}
		res.BetaAv = append(res.BetaAv, avg(pr))
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Hyper-parameter ablation (Section 3.3.2: K=7, beta=1; claimed insensitive)\n")
	for i, k := range r.Ks {
		fmt.Fprintf(&b, "  K=%-3d (beta=1): model avg %.3fx\n", k, r.KAvg[i])
	}
	for i, beta := range r.Betas {
		fmt.Fprintf(&b, "  beta=%-4.1f (K=7): model avg %.3fx\n", beta, r.BetaAv[i])
	}
	return b.String()
}
