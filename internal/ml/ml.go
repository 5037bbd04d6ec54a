// Package ml implements the paper's machine-learning model (Section 3):
//
//   - per program/microarchitecture pair, an IID multinomial distribution
//     g(y|X) over optimisation settings is fitted by maximum likelihood to
//     the empirical distribution of the *good* settings - those within the
//     top 5% of the sampled optimisation space (equations 2-5);
//
//   - across pairs, a predictive distribution q(y|x) is formed by K-nearest
//     -neighbour combination in feature space: the distributions of the K=7
//     closest training pairs are mixed with weights w_k proportional to
//     exp(-beta*d(x_k,x*)), beta=1 (equation 6);
//
//   - prediction takes the mode of the mixture (equation 1), which
//     factorises per optimisation dimension under the IID assumption.
//
// A prediction must be free beside the compile it steers, so a Model
// carries its training vectors already normalised in one flat matrix,
// derived once in Train or Decode and never stored in an artifact. A
// query normalises itself and walks the matrix once keeping the K
// nearest in order: no allocation, no sort, and the same floats the sort
// over freshly normalised vectors gave (mixtureReference in ml_test.go).
package ml

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"portcc/internal/features"
	"portcc/internal/opt"
)

// Dist is the IID multinomial distribution g(y|X): one categorical
// distribution per optimisation dimension.
type Dist struct {
	// Theta[l][j] is the probability that dimension l takes value j
	// (theta_l^j in equation 4/5).
	Theta [opt.NumDims][opt.MaxDimSize]float64
}

// GoodFraction is the paper's definition of the good set: settings within
// the top 5% of all training settings for the pair (footnote 1).
const GoodFraction = 0.05

// MinGoodCount stabilises the fit at reduced sampling scales: the paper's
// 5% of 1000 evaluations gives 50 settings per fit; with fewer sampled
// settings the top 5% alone is too sparse to estimate the per-dimension
// probabilities, so at least this many settings enter the fit (at the
// paper's scale the 5% rule dominates and this floor is inactive).
const MinGoodCount = 10

// FitGood computes the maximum-likelihood IID fit to a uniform empirical
// distribution over the given good settings (equation 5): theta_l^j is the
// frequency of value j in dimension l.
func FitGood(good []opt.Config) (Dist, error) {
	var d Dist
	if len(good) == 0 {
		return d, fmt.Errorf("ml: empty good set")
	}
	inv := 1.0 / float64(len(good))
	for i := range good {
		for l := 0; l < opt.NumDims; l++ {
			d.Theta[l][good[i].Value(l)] += inv
		}
	}
	return d, nil
}

// TopGood selects the good set from a sampled dataset: the configurations
// whose speedups are within the top GoodFraction, at least one.
func TopGood(configs []opt.Config, speedups []float64) []opt.Config {
	n := len(configs)
	if n == 0 || n != len(speedups) {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if speedups[idx[a]] != speedups[idx[b]] {
			return speedups[idx[a]] > speedups[idx[b]]
		}
		return idx[a] < idx[b]
	})
	k := int(math.Ceil(float64(n) * GoodFraction))
	if k < MinGoodCount {
		k = MinGoodCount
	}
	if k > n {
		k = n
	}
	good := make([]opt.Config, 0, k)
	for _, i := range idx[:k] {
		good = append(good, configs[i])
	}
	return good
}

// Mode returns the most probable configuration under the distribution
// (equation 1 restricted to one mixture component).
func (d *Dist) Mode() opt.Config {
	var c opt.Config
	for l := 0; l < opt.NumDims; l++ {
		best, bestP := 0, -1.0
		for j := 0; j < opt.DimSize(l); j++ {
			if d.Theta[l][j] > bestP {
				best, bestP = j, d.Theta[l][j]
			}
		}
		c.SetValue(l, best)
	}
	return c
}

// TrainingPair is one program/microarchitecture pair of the training set.
type TrainingPair struct {
	// Prog names the program; Arch identifies the microarchitecture
	// (its index in the sampled configuration list).
	Prog string
	Arch int
	// X is the feature vector x=(c,d) from the -O3 profiling run.
	X []float64
	// G is the fitted distribution over good optimisation settings.
	G Dist
}

// Hyper-parameters of equation (6), as chosen in the paper.
const (
	// K is the neighbour count (the paper: "K = 7 different neighbour
	// programs", with insensitivity to similar values).
	K = 7
	// Beta is the weight decay constant (beta = 1).
	Beta = 1.0
)

// Model is the trained predictor, made by Train or Decode and nowhere
// else. Once either returns, Pairs and Norm are frozen; the
// hyper-parameters may still change and a Model may be copied by value.
type Model struct {
	Pairs []TrainingPair
	Norm  *features.Normalizer
	// KNeighbours and BetaValue allow experiments to vary the paper's
	// hyper-parameters; zero values select K and Beta.
	KNeighbours int
	BetaValue   float64

	// rows is what a query reads instead of Pairs[i].X: Norm.Apply of
	// each, row-major and dim wide, built once by index. Artifacts never
	// hold it, so their bytes do not depend on it.
	rows []float64
	dim  int
}

// Dim returns the width of the model's feature vectors.
func (m *Model) Dim() int { return m.dim }

// index derives rows and dim from Pairs and Norm, whose lengths agree
// (Train estimates one from the other; Decode validates first).
func (m *Model) index() {
	m.dim = len(m.Norm.Mean)
	if m.dim == 0 && len(m.Pairs) > 0 {
		m.dim = len(m.Pairs[0].X)
	}
	m.rows = make([]float64, 0, len(m.Pairs)*m.dim)
	for i := range m.Pairs {
		m.rows = append(m.rows, m.Norm.Apply(m.Pairs[i].X)...)
	}
}

// trainCalls counts Train invocations process-wide. Pre-trained
// artifacts exist so deployment paths never retrain; TrainCalls lets
// tests pin that contract instead of trusting code inspection.
var trainCalls atomic.Int64

// TrainCalls returns how many times Train has run in this process.
func TrainCalls() int64 { return trainCalls.Load() }

// Train builds a model from training pairs: the feature normaliser is
// estimated and frozen from the training set.
func Train(pairs []TrainingPair) *Model {
	trainCalls.Add(1)
	vecs := make([][]float64, len(pairs))
	for i := range pairs {
		vecs[i] = pairs[i].X
	}
	m := &Model{Pairs: pairs, Norm: features.NewNormalizer(vecs)}
	m.index()
	return m
}

// PredictOption configures a single prediction or mixture query. It is
// a plain value, not a closure, so passing one allocates nothing.
type PredictOption struct {
	exclude bool
	prog    string
	arch    int
}

// WithExclude implements the leave-one-out mask of Section 5.1.1: any
// training pair matching the program name or the architecture index is
// dropped from the neighbour search (neither the test program nor the
// test microarchitecture is ever trained on).
func WithExclude(prog string, arch int) PredictOption {
	return PredictOption{exclude: true, prog: prog, arch: arch}
}

// Predict returns the predicted-best configuration for feature vector x
// (equation 1): the mode of the KNN mixture q(y|x). By default every
// training pair participates; pass WithExclude for leave-one-out
// cross-validation.
func (m *Model) Predict(x []float64, opts ...PredictOption) opt.Config {
	mix := m.Mixture(x, opts...)
	return mix.Mode()
}

// Stack room for one query; a wider vector or a larger neighbourhood
// than any the repo trains spills to the heap through append.
const stackDim, stackK = 32, 16

// candidate is one training pair in the running for the neighbourhood.
type candidate struct {
	dist float64
	pair *TrainingPair
}

// nearer is the neighbourhood's total order: distance, then the pair's
// identity, so equidistant pairs rank the same on every run.
func nearer(a, b candidate) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.pair.Prog != b.pair.Prog {
		return a.pair.Prog < b.pair.Prog
	}
	return a.pair.Arch < b.pair.Arch
}

// Mixture computes q(y|x): the convex combination of the K nearest
// training distributions with weights w_k = exp(-beta d_k)/sum (eq. 6).
// One pass over the normalised rows, no allocation, safe for concurrent
// use.
func (m *Model) Mixture(x []float64, opts ...PredictOption) Dist {
	var set PredictOption
	for _, o := range opts {
		set = o
	}
	k := m.KNeighbours
	if k <= 0 {
		k = K
	}
	k = min(k, len(m.Pairs))
	beta := m.BetaValue
	if beta <= 0 {
		beta = Beta
	}
	nx := x
	if mean, std := m.Norm.Mean, m.Norm.Std; len(mean) > 0 {
		var qbuf [stackDim]float64
		nx = append(qbuf[:0], x...)
		for i, v := range x {
			nx[i] = (v - mean[i]) / std[i]
		}
	}
	var kbuf [stackK]candidate
	nbrs := kbuf[:0] // the k nearest so far, nearest first
	for i := range m.Pairs {
		p := &m.Pairs[i]
		if set.exclude && (p.Prog == set.prog || p.Arch == set.arch) {
			continue
		}
		// features.Distance(nx, row), operation for operation.
		row := m.rows[i*m.dim : (i+1)*m.dim]
		s := 0.0
		for j, q := range nx {
			d := q - row[j]
			s += d * d
		}
		c := candidate{dist: math.Sqrt(s), pair: p}
		if len(nbrs) == k {
			if !nearer(c, nbrs[k-1]) {
				continue
			}
			nbrs = nbrs[:k-1]
		}
		j := len(nbrs)
		nbrs = append(nbrs, c)
		for ; j > 0 && nearer(c, nbrs[j-1]); j-- {
			nbrs[j] = nbrs[j-1]
		}
		nbrs[j] = c
	}
	var mix Dist
	if len(nbrs) == 0 {
		// Degenerate: uniform distribution.
		for l := 0; l < opt.NumDims; l++ {
			for j := 0; j < opt.DimSize(l); j++ {
				mix.Theta[l][j] = 1.0 / float64(opt.DimSize(l))
			}
		}
		return mix
	}
	// Weights relative to the nearest distance for numerical stability;
	// they overwrite the distances they were computed from.
	d0 := nbrs[0].dist
	wsum := 0.0
	for i := range nbrs {
		nbrs[i].dist = math.Exp(-beta * (nbrs[i].dist - d0))
		wsum += nbrs[i].dist
	}
	for _, nb := range nbrs {
		w := nb.dist / wsum
		for l := 0; l < opt.NumDims; l++ {
			for j := 0; j < opt.DimSize(l); j++ {
				mix.Theta[l][j] += w * nb.pair.G.Theta[l][j]
			}
		}
	}
	return mix
}
