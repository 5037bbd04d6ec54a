package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"portcc/internal/features"
	"portcc/internal/opt"
)

func TestFitGoodFrequencies(t *testing.T) {
	// Three configs: flag 0 on in two of them -> theta = 2/3.
	var a, b, c opt.Config
	a.Flags[0] = true
	b.Flags[0] = true
	d, err := FitGood([]opt.Config{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Theta[0][1]-2.0/3) > 1e-12 {
		t.Errorf("theta[0][on] = %g, want 2/3", d.Theta[0][1])
	}
	if math.Abs(d.Theta[0][0]-1.0/3) > 1e-12 {
		t.Errorf("theta[0][off] = %g, want 1/3", d.Theta[0][0])
	}
}

func TestFitGoodEmpty(t *testing.T) {
	if _, err := FitGood(nil); err == nil {
		t.Error("empty good set accepted")
	}
}

func TestThetaSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs []opt.Config
		for i := 0; i < 12; i++ {
			cs = append(cs, opt.Random(rng))
		}
		d, err := FitGood(cs)
		if err != nil {
			return false
		}
		for l := 0; l < opt.NumDims; l++ {
			s := 0.0
			for j := 0; j < opt.DimSize(l); j++ {
				s += d.Theta[l][j]
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModePicksArgmax(t *testing.T) {
	var on opt.Config
	on.Flags[opt.FGcse] = true
	d, _ := FitGood([]opt.Config{on, on, {}})
	mode := d.Mode()
	if !mode.Flag(opt.FGcse) {
		t.Error("mode must select the majority value")
	}
}

func TestTopGoodSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var configs []opt.Config
	var speedups []float64
	for i := 0; i < 100; i++ {
		configs = append(configs, opt.Random(rng))
		speedups = append(speedups, float64(i)) // strictly increasing
	}
	good := TopGood(configs, speedups)
	if len(good) != MinGoodCount {
		t.Fatalf("good set size %d, want MinGoodCount %d (5%% of 100 = 5 < floor)", len(good), MinGoodCount)
	}
	// They must be the 10 highest-speedup configs (indices 90..99).
	if good[0] != configs[99] {
		t.Error("best config not first in the good set")
	}
}

func TestGibbsInequality(t *testing.T) {
	// Cross-entropy H(p, q) is minimised at q = p (equation 2's basis).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs1, cs2 []opt.Config
		for i := 0; i < 15; i++ {
			cs1 = append(cs1, opt.Random(rng))
			cs2 = append(cs2, opt.Random(rng))
		}
		p, _ := FitGood(cs1)
		q, _ := FitGood(cs2)
		return CrossEntropy(&p, &p) <= CrossEntropy(&p, &q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func makePair(name string, arch int, x []float64, flagOn opt.Flag) TrainingPair {
	var c opt.Config
	c.Flags[flagOn] = true
	g, _ := FitGood([]opt.Config{c, c, c})
	return TrainingPair{Prog: name, Arch: arch, X: x, G: g}
}

func TestKNNPrefersNearest(t *testing.T) {
	// Two clusters with opposite preferred flags; a query near cluster A
	// must inherit A's flag.
	var pairs []TrainingPair
	for i := 0; i < 8; i++ {
		pairs = append(pairs, makePair("a", i, []float64{0, float64(i) * 0.01}, opt.FUnrollLoops))
		pairs = append(pairs, makePair("b", i+8, []float64{10, float64(i) * 0.01}, opt.FScheduleInsns))
	}
	m := Train(pairs)
	got := m.Predict([]float64{0.1, 0})
	if !got.Flag(opt.FUnrollLoops) || got.Flag(opt.FScheduleInsns) {
		t.Error("prediction ignored the nearest cluster")
	}
	got = m.Predict([]float64{9.9, 0})
	if got.Flag(opt.FUnrollLoops) || !got.Flag(opt.FScheduleInsns) {
		t.Error("prediction ignored the nearest cluster (far side)")
	}
}

func TestExcludeMask(t *testing.T) {
	var pairs []TrainingPair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, makePair("victim", i, []float64{0, 0}, opt.FUnrollLoops))
	}
	pairs = append(pairs, makePair("other", 99, []float64{5, 5}, opt.FScheduleInsns))
	m := Train(pairs)
	// Excluding "victim" leaves only the far pair.
	got := m.Predict([]float64{0, 0}, WithExclude("victim", -1))
	if got.Flag(opt.FUnrollLoops) {
		t.Error("excluded program leaked into the prediction")
	}
	if !got.Flag(opt.FScheduleInsns) {
		t.Error("remaining pair not used")
	}
}

func TestMixtureWeightsSumToOne(t *testing.T) {
	var pairs []TrainingPair
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		var cs []opt.Config
		for j := 0; j < 5; j++ {
			cs = append(cs, opt.Random(rng))
		}
		g, _ := FitGood(cs)
		pairs = append(pairs, TrainingPair{Prog: "p", Arch: i,
			X: []float64{rng.Float64(), rng.Float64()}, G: g})
	}
	m := Train(pairs)
	mix := m.Mixture([]float64{0.5, 0.5})
	for l := 0; l < opt.NumDims; l++ {
		s := 0.0
		for j := 0; j < opt.DimSize(l); j++ {
			s += mix.Theta[l][j]
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("mixture dimension %d sums to %g", l, s)
		}
	}
}

func TestEmptyNeighboursFallBackToUniform(t *testing.T) {
	m := Train([]TrainingPair{makePair("only", 0, []float64{1}, opt.FGcse)})
	mix := m.Mixture([]float64{1}, WithExclude("only", -1))
	for j := 0; j < 2; j++ {
		if math.Abs(mix.Theta[0][j]-0.5) > 1e-9 {
			t.Error("empty neighbour set must yield a uniform mixture")
		}
	}
}

type neighbour struct {
	dist float64
	pair *TrainingPair
}

// mixtureReference is Mixture as it stood before the model carried its
// normalised rows: every training vector re-normalised per query, then a
// full sort to keep K. Kept verbatim (but for reading the exclusion from
// the option value) as the oracle Mixture must equal bit for bit.
func mixtureReference(m *Model, x []float64, opts ...PredictOption) Dist {
	var set PredictOption
	for _, o := range opts {
		set = o
	}
	k := m.KNeighbours
	if k <= 0 {
		k = K
	}
	beta := m.BetaValue
	if beta <= 0 {
		beta = Beta
	}
	nx := m.Norm.Apply(x)
	var nbrs []neighbour
	for i := range m.Pairs {
		p := &m.Pairs[i]
		if set.exclude && (p.Prog == set.prog || p.Arch == set.arch) {
			continue
		}
		nbrs = append(nbrs, neighbour{dist: features.Distance(nx, m.Norm.Apply(p.X)), pair: p})
	}
	sort.Slice(nbrs, func(a, b int) bool {
		if nbrs[a].dist != nbrs[b].dist {
			return nbrs[a].dist < nbrs[b].dist
		}
		// Deterministic tie-break on identity.
		if nbrs[a].pair.Prog != nbrs[b].pair.Prog {
			return nbrs[a].pair.Prog < nbrs[b].pair.Prog
		}
		return nbrs[a].pair.Arch < nbrs[b].pair.Arch
	})
	if len(nbrs) > k {
		nbrs = nbrs[:k]
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
	// Weights relative to the nearest distance for numerical stability.
	d0 := nbrs[0].dist
	wsum := 0.0
	ws := make([]float64, len(nbrs))
	for i, nb := range nbrs {
		ws[i] = math.Exp(-beta * (nb.dist - d0))
		wsum += ws[i]
	}
	for i, nb := range nbrs {
		w := ws[i] / wsum
		for l := 0; l < opt.NumDims; l++ {
			for j := 0; j < opt.DimSize(l); j++ {
				mix.Theta[l][j] += w * nb.pair.G.Theta[l][j]
			}
		}
	}
	return mix
}

// randModel trains on nProg x nArch pairs of distinct identity. With
// levels > 0 every coordinate is one of that many integers, so whole
// vectors repeat and distances tie all over; otherwise coordinates are
// real-valued and one pair in four copies an earlier pair's vector.
func randModel(rng *rand.Rand, nProg, nArch, dim, levels int) *Model {
	var pairs []TrainingPair
	for p := 0; p < nProg; p++ {
		for a := 0; a < nArch; a++ {
			x := make([]float64, dim)
			for i := range x {
				if levels > 0 {
					x[i] = float64(rng.Intn(levels))
				} else {
					x[i] = rng.NormFloat64() * float64(1+i)
				}
			}
			if levels == 0 && len(pairs) > 0 && rng.Intn(4) == 0 {
				copy(x, pairs[rng.Intn(len(pairs))].X)
			}
			var cs []opt.Config
			for j := 0; j < 4; j++ {
				cs = append(cs, opt.Random(rng))
			}
			g, _ := FitGood(cs)
			pairs = append(pairs, TrainingPair{Prog: fmt.Sprintf("p%02d", p), Arch: a, X: x, G: g})
		}
	}
	// Identity order must not be storage order, or the tie-break is never
	// told apart from "first seen wins".
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return Train(pairs)
}

// TestMixtureMatchesReference: the one-pass kernel returns the very
// floats the sorting oracle does - ties, exclusions, hyper-parameter
// overrides, both buffer paths and every way a Model is made included.
func TestMixtureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type variant struct {
		name string
		m    *Model
	}
	var variants []variant
	for _, shape := range []struct{ nProg, nArch, dim, levels int }{
		{6, 5, features.Dim, 0},
		{5, 4, 3, 2},  // lattice: most distances tie
		{1, 9, 4, 0},  // one program: excluding it empties the neighbourhood
		{3, 3, 40, 0}, // wider than the query's stack buffer
	} {
		base := randModel(rng, shape.nProg, shape.nArch, shape.dim, shape.levels)
		name := fmt.Sprintf("%dx%dx%d/%d", shape.nProg, shape.nArch, shape.dim, shape.levels)
		variants = append(variants, variant{name, base})
		for _, k := range []int{1, 7, 16, 40, len(base.Pairs) + 3} {
			// Copied by value, hyper-parameter changed afterwards: the
			// copy shares the rows, which do not depend on it.
			c := *base
			c.KNeighbours = k
			variants = append(variants, variant{fmt.Sprintf("%s/k=%d", name, k), &c})
		}
		b := *base
		b.BetaValue = 0.37
		variants = append(variants, variant{name + "/beta", &b})

		pass := *base
		pass.Norm = &features.Normalizer{}
		pass.index()
		variants = append(variants, variant{name + "/pass-through", &pass})

		enc, err := Encode(&b, ArtifactInfo{})
		if err != nil {
			t.Fatal(err)
		}
		decoded, _, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, variant{name + "/decoded", decoded})
	}
	checked := 0
	for _, v := range variants {
		m := v.m
		dim := len(m.Pairs[0].X)
		for q := 0; q < 12; q++ {
			x := make([]float64, dim)
			switch q % 3 {
			case 0: // somewhere in the cloud
				for i := range x {
					x[i] = rng.NormFloat64() * float64(1+i)
				}
			case 1: // on a training vector (and on its duplicates)
				copy(x, m.Pairs[rng.Intn(len(m.Pairs))].X)
			case 2: // on the lattice
				for i := range x {
					x[i] = float64(rng.Intn(2))
				}
			}
			held := &m.Pairs[rng.Intn(len(m.Pairs))]
			for _, opts := range [][]PredictOption{
				nil,
				{WithExclude(held.Prog, -1)},
				{WithExclude("", held.Arch)},
				{WithExclude(held.Prog, held.Arch)},
			} {
				got, want := m.Mixture(x, opts...), mixtureReference(m, x, opts...)
				if got != want {
					t.Fatalf("%s, query %d %v, options %+v: Mixture differs from the reference", v.name, q, x, opts)
				}
				checked++
			}
		}
	}
	t.Logf("%d queries over %d models", checked, len(variants))
}

// FuzzMixtureVsReference holds the same == property on fuzzed input: a
// seeded model on a coarse lattice (so ties are the common case) and a
// query, neighbour count and exclusion read from the fuzzer's bytes.
func FuzzMixtureVsReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 1}, uint8(0), uint8(0))
	f.Add(int64(2), []byte{255, 128, 7, 9}, uint8(3), uint8(1))
	f.Add(int64(3), []byte{1, 1, 1, 1}, uint8(20), uint8(2))
	f.Add(int64(4), []byte{2, 0}, uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, query []byte, k, excl uint8) {
		const dim = 4
		rng := rand.New(rand.NewSource(seed))
		m := randModel(rng, 2+rng.Intn(4), 1+rng.Intn(5), dim, 1+rng.Intn(3))
		m.KNeighbours = int(k)
		x := make([]float64, dim)
		for i := range x {
			if i < len(query) {
				// Quarter steps across the lattice and a little beyond it.
				x[i] = float64(int8(query[i])) / 4
			}
		}
		var opts []PredictOption
		held := &m.Pairs[rng.Intn(len(m.Pairs))]
		switch excl % 4 {
		case 1:
			opts = append(opts, WithExclude(held.Prog, -1))
		case 2:
			opts = append(opts, WithExclude("", held.Arch))
		case 3:
			opts = append(opts, WithExclude(held.Prog, held.Arch))
		}
		if got, want := m.Mixture(x, opts...), mixtureReference(m, x, opts...); got != want {
			t.Fatalf("seed %d, query %v, k %d, options %+v: Mixture differs from the reference", seed, x, k, opts)
		}
	})
}

// TestMixtureAllocatesNothing pins the prediction kernel at zero heap
// objects per call, the leave-one-out form included.
func TestMixtureAllocatesNothing(t *testing.T) {
	m := randModel(rand.New(rand.NewSource(5)), 6, 5, features.Dim, 0)
	x := m.Pairs[3].X
	var mix Dist
	var cfg opt.Config
	if n := testing.AllocsPerRun(100, func() { mix = m.Mixture(x) }); n != 0 {
		t.Errorf("Mixture(x) allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { cfg = m.Predict(x, WithExclude("p03", 2)) }); n != 0 {
		t.Errorf("Predict(x, WithExclude) allocates %.0f objects per call, want 0", n)
	}
	_, _ = mix, cfg
}

// TestMixtureConcurrentQueries: one model, many goroutines - what the
// prediction server and the leave-one-out pool both do. Every answer must
// be the single-threaded one; -race watches the shared rows.
func TestMixtureConcurrentQueries(t *testing.T) {
	m := randModel(rand.New(rand.NewSource(6)), 6, 5, features.Dim, 0)
	want := make([]Dist, len(m.Pairs))
	for i := range m.Pairs {
		want[i] = m.Mixture(m.Pairs[i].X, WithExclude(m.Pairs[i].Prog, m.Pairs[i].Arch))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(m.Pairs)
				p := &m.Pairs[i]
				if got := m.Mixture(p.X, WithExclude(p.Prog, p.Arch)); got != want[i] {
					t.Errorf("goroutine %d: concurrent Mixture for pair %d differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
