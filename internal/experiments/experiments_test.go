package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"portcc/internal/dataset"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/uarch"
)

// testDS caches one tiny dataset for the whole test file.
var testDS *dataset.Dataset

func getDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	if testDS == nil {
		s := Scale{Name: "test", Programs: []string{
			"rijndael_e", "search", "qsort", "crc", "bitcnts", "madplay",
		}, NumArchs: 4, NumOpts: 16, TargetInsns: 6000, Seed: 3}
		ds, err := s.Generate(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
		testDS = ds
	}
	return testDS
}

func TestStaticTables(t *testing.T) {
	t2 := Table2()
	if !strings.Contains(t2, "288000") && !strings.Contains(t2, "288,000") {
		t.Error("Table 2 must state the 288,000-configuration space")
	}
	f3 := Figure3()
	if !strings.Contains(f3, "funroll_loops") || !strings.Contains(f3, "param_max_gcse_passes") {
		t.Error("Figure 3 must list the flags and parameters")
	}
}

func TestTable1LiveCounters(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"IPC", "icache_miss_rate", "MAC_usg"} {
		if !strings.Contains(out, counter) {
			t.Errorf("Table 1 missing counter %s", counter)
		}
	}
}

func TestFigure4(t *testing.T) {
	ds := getDS(t)
	f4 := Figure4(ds)
	if len(f4.Boxes) != len(ds.Programs) {
		t.Fatal("one box per program expected")
	}
	for i, b := range f4.Boxes {
		if b.Min > b.Median || b.Median > b.Max {
			t.Errorf("box %d not ordered: %+v", i, b)
		}
		if b.Max < 1 {
			t.Errorf("%s: best speedup below 1 is impossible (O3 is sampled)", ds.Programs[i])
		}
	}
	if f4.Average < 1 {
		t.Error("average best speedup must be at least 1")
	}
	if f4.WrongAvg > 1 {
		t.Error("picking the worst settings must not look like a speedup")
	}
	if f4.WrongWorst > f4.WrongAvg {
		t.Error("worst case cannot beat the average")
	}
	if r := f4.Render(); !strings.Contains(r, "AVERAGE") {
		t.Error("render missing the average line")
	}
}

func TestPredictionsAndFigures(t *testing.T) {
	ds := getDS(t)
	pr, err := Predict(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	nP, nA, _ := ds.Dims()
	for p := 0; p < nP; p++ {
		for a := 0; a < nA; a++ {
			if pr.Speedup[p][a] <= 0 {
				t.Fatalf("non-positive predicted speedup at (%d,%d)", p, a)
			}
			if pr.Best[p][a] < 1 {
				t.Fatalf("best below baseline at (%d,%d)", p, a)
			}
		}
	}

	f5 := Figure5(pr)
	if f5.Correlation < -1 || f5.Correlation > 1 {
		t.Error("correlation out of bounds")
	}
	if f5.MaxBest < f5.MaxPredicted-1e-9 && f5.MaxPredicted > f5.MaxBest*1.5 {
		t.Error("predicted surface peak wildly exceeds the best surface")
	}

	f6 := Figure6(pr)
	if len(f6.Model) != nP {
		t.Fatal("Figure 6 must have one bar per program")
	}
	for i := range f6.Model {
		if f6.Model[i] > f6.Best[i]+0.25 {
			t.Errorf("%s: model %f far exceeds best %f", f6.Programs[i], f6.Model[i], f6.Best[i])
		}
	}
	if f6.BestAvg < f6.ModelAvg-1e-9 && f6.ModelAvg > f6.BestAvg {
		t.Error("model average cannot exceed the iterative-compilation bound meaningfully")
	}

	f7 := Figure7(pr)
	if len(f7.Best) != nA {
		t.Fatal("Figure 7 must have one point per architecture")
	}
	for i := 1; i < len(f7.Best); i++ {
		if f7.Best[i] < f7.Best[i-1]-1e-9 {
			t.Error("Figure 7 best series must be sorted ascending")
		}
	}

	it := IterationsToMatch(pr)
	if it.Pairs != nP*nA {
		t.Error("iterations-to-match must cover every pair")
	}
	if it.MeanEvals < 1 {
		t.Error("mean evaluations below 1 impossible")
	}
}

// TestPredictWithModelRefusesWrongWidth: a model artifact of another
// feature width (legal to ml.Decode, the expgen -model path loads it)
// is a typed error, not an index panic in the first prediction.
func TestPredictWithModelRefusesWrongWidth(t *testing.T) {
	narrow := ml.Train([]ml.TrainingPair{{Prog: "crc", X: []float64{1, 2}}})
	if _, err := PredictWithModel(context.Background(), getDS(t), narrow, dataset.ExploreOptions{Workers: 1}); !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Fatalf("%d-wide model: err = %v, want ErrInvalidConfig", narrow.Dim(), err)
	}
}

func TestHintonDiagrams(t *testing.T) {
	ds := getDS(t)
	h8 := Figure8(ds)
	if len(h8.Cells) != opt.NumDims || len(h8.Cells[0]) != len(ds.Programs) {
		t.Fatal("Figure 8 dimensions wrong")
	}
	h9 := Figure9(ds)
	if len(h9.Cells) != opt.NumDims || len(h9.Cells[0]) != 19 {
		t.Fatal("Figure 9 dimensions wrong")
	}
	for _, h := range []([][]float64){h8.Cells, h9.Cells} {
		for _, row := range h {
			for _, v := range row {
				if v < 0 || v > 1 {
					t.Fatal("normalised MI out of [0,1]")
				}
			}
		}
	}
	if h8.Render() == "" || h9.Render() == "" {
		t.Error("empty Hinton rendering")
	}
}

// TestFigure9IgnoresProgramOrder pins that Figure 9 reads the (program,
// architecture) pairs as a set: listing the programs in reverse leaves
// every cell as it was. An architecture descriptor takes few distinct
// values over many pairs, so binning that split its ties by sample index
// would encode the program order in its bins.
func TestFigure9IgnoresProgramOrder(t *testing.T) {
	ds := getDS(t)
	rev := *ds
	n := len(ds.Programs)
	rev.Programs = make([]string, n)
	rev.Speedups = make([][][]float32, n)
	rev.Features = make([][][]float64, n)
	rev.BaselineCycles = make([][]float64, n)
	rev.Runs = make([]int, n)
	for p := 0; p < n; p++ {
		q := n - 1 - p
		rev.Programs[q], rev.Speedups[q], rev.Features[q] = ds.Programs[p], ds.Speedups[p], ds.Features[p]
		rev.BaselineCycles[q], rev.Runs[q] = ds.BaselineCycles[p], ds.Runs[p]
	}
	want, got := Figure9(ds), Figure9(&rev)
	for l := range want.Cells {
		for f := range want.Cells[l] {
			if d := math.Abs(got.Cells[l][f] - want.Cells[l][f]); d > 1e-12 {
				t.Errorf("%s x %s: %g with the programs reversed, %g in order", want.RowLabels[l], want.ColLabels[f], got.Cells[l][f], want.Cells[l][f])
			}
		}
	}
}

func TestFigure1(t *testing.T) {
	ds := getDS(t)
	f1, err := Figure1(context.Background(), ds, dataset.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Programs) != 3 || len(f1.Archs) != 3 || len(f1.Passes) != 5 {
		t.Fatal("Figure 1 must be 3 programs x 3 archs x 5 passes")
	}
	r := f1.Render()
	if !strings.Contains(r, "rijndael_e") {
		t.Error("Figure 1 render missing programs")
	}
}

// TestFigure1CompilesEachSettingOnce, read off the result store: every
// setting of every program is compiled in exactly one compile-index
// block, at most one replay per setting misses, and a second Figure 1
// over the same store compiles and replays nothing and draws the same
// diagram.
func TestFigure1CompilesEachSettingOnce(t *testing.T) {
	ctx := context.Background()
	ds := getDS(t)
	st, err := dataset.OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := dataset.ExploreOptions{Store: st}
	first, err := Figure1(ctx, ds, o)
	if err != nil {
		t.Fatal(err)
	}
	nP, nO := len(first.Programs), len(ds.Opts)
	blocks := int64(nP * ((nO + 7) / 8))
	ih, im, _ := st.IndexStats()
	misses := st.Stats().Misses - im
	if ih != 0 || im != blocks || misses < 1 || misses > int64(nP*nO) {
		t.Errorf("cold: %d index hits, %d index misses, %d result misses; want 0, %d (one per 8 settings), 1..%d",
			ih, im, misses, blocks, nP*nO)
	}
	before := st.Stats()
	again, err := Figure1(ctx, ds, o)
	if err != nil {
		t.Fatal(err)
	}
	ih2, im2, _ := st.IndexStats()
	if after := st.Stats(); after.Misses != before.Misses || after.Puts != before.Puts || im2 != im || ih2 != blocks {
		t.Errorf("warm: %d new misses, %d new puts, %d new index misses, %d index hits; want 0, 0, 0, %d",
			after.Misses-before.Misses, after.Puts-before.Puts, im2-im, ih2, blocks)
	}
	if again.Render() != first.Render() {
		t.Error("Figure 1 over a warm store differs from the cold run")
	}
}

// predictReference is the leave-one-out evaluation as it was before it
// ran through dataset.Explore: per program, one compile, trace and
// batched replay per distinct prediction over the architectures that
// chose it. It is the oracle PredictWithModel is held to.
func predictReference(ds *dataset.Dataset, model *ml.Model) (*Predictions, error) {
	nP, nA, _ := ds.Dims()
	pr := &Predictions{
		DS:      ds,
		Config:  make([][]opt.Config, nP),
		Speedup: make([][]float64, nP),
		Best:    make([][]float64, nP),
	}
	ev := dataset.NewEvaluator(ds.Cfg.Eval)
	for p := range nP {
		pr.Config[p] = make([]opt.Config, nA)
		pr.Speedup[p] = make([]float64, nA)
		pr.Best[p] = make([]float64, nA)
		groups := map[opt.Config][]int{}
		var order []opt.Config
		for a := range nA {
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
				return nil, err
			}
			archs := make([]uarch.Config, len(archIdx))
			for i, a := range archIdx {
				archs[i] = ds.Archs[a]
			}
			for i, r := range ev.SimulateBatch(tr, archs) {
				cyc := float64(r.Cycles) / float64(max(tr.Runs, 1))
				pr.Speedup[p][archIdx[i]] = ds.BaselineCycles[p][archIdx[i]] / cyc
			}
		}
	}
	return pr, nil
}

// TestPredictMatchesReference: measuring the predictions as exploration
// grids (every architecture replays every distinct prediction, twins
// share a replay) lands on the reference's floats bit for bit.
func TestPredictMatchesReference(t *testing.T) {
	ds := getDS(t)
	pairs, err := ds.TrainingPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{3, 7, 15} {
		model := ml.Train(pairs)
		model.KNeighbours = k
		want, err := predictReference(ds, model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PredictWithModel(context.Background(), ds, model, dataset.ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for p := range want.Speedup {
			for a := range want.Speedup[p] {
				if got.Config[p][a] != want.Config[p][a] ||
					math.Float64bits(got.Speedup[p][a]) != math.Float64bits(want.Speedup[p][a]) ||
					math.Float64bits(got.Best[p][a]) != math.Float64bits(want.Best[p][a]) {
					t.Fatalf("K=%d (%s, arch %d): speedup %v best %v, reference %v best %v",
						k, ds.Programs[p], a, got.Speedup[p][a], got.Best[p][a], want.Speedup[p][a], want.Best[p][a])
				}
			}
		}
	}
}

// TestPredictResumesFromStore: a second leave-one-out over the same
// result store is answered from it - hits only, no result or index miss
// - and lands on the same speedups.
func TestPredictResumesFromStore(t *testing.T) {
	ctx := context.Background()
	ds := getDS(t)
	st, err := dataset.OpenResultStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	o := dataset.ExploreOptions{Store: st}
	first, err := PredictWith(ctx, ds, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	ih, im, _ := st.IndexStats()
	again, err := PredictWith(ctx, ds, 0, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	ih2, im2, _ := st.IndexStats()
	if after.Misses != before.Misses || im2 != im || after.Hits <= before.Hits || ih2 <= ih {
		t.Errorf("second pass: %d new hits, %d new misses, %d new index hits, %d new index misses; want hits only",
			after.Hits-before.Hits, after.Misses-before.Misses, ih2-ih, im2-im)
	}
	for p := range first.Speedup {
		for a := range first.Speedup[p] {
			if math.Float64bits(again.Speedup[p][a]) != math.Float64bits(first.Speedup[p][a]) {
				t.Fatalf("(%s, arch %d): %v from the store, %v measured", ds.Programs[p], a, again.Speedup[p][a], first.Speedup[p][a])
			}
		}
	}
}

// TestPredictCancelled: a cancelled context stops the leave-one-out with
// an error wrapping context.Canceled.
func TestPredictCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PredictWith(ctx, getDS(t), 0, 0, dataset.ExploreOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PredictWith returned %v, want context.Canceled", err)
	}
}

func TestAblationKInsensitivity(t *testing.T) {
	// The Section 3.3.2 claim: performance is not sensitive to K near 7.
	ds := getDS(t)
	ab, err := Ablation(context.Background(), ds, dataset.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.KAvg) != len(ab.Ks) || len(ab.BetaAv) != len(ab.Betas) {
		t.Fatal("sweep incomplete")
	}
	// K=5..9 must stay within a narrow band of K=7.
	var k5, k7, k9 float64
	for i, k := range ab.Ks {
		switch k {
		case 5:
			k5 = ab.KAvg[i]
		case 7:
			k7 = ab.KAvg[i]
		case 9:
			k9 = ab.KAvg[i]
		}
	}
	const band = 0.08
	if k5 < k7-band || k5 > k7+band || k9 < k7-band || k9 > k7+band {
		t.Errorf("K sensitivity too strong: K5=%.3f K7=%.3f K9=%.3f", k5, k7, k9)
	}
	if ab.Render() == "" {
		t.Error("empty render")
	}
}

// TestFigureShape pins the shape of the reproduction at the tiny scale,
// so regenerating golden.json cannot silently bend it: digests prove the
// results did not change, this proves they still say what the paper
// says. Measured when written: wrong-avg 0.84, model-avg 1.133, best-avg
// 1.310, model above 1.0 on 5 of 5 architectures, correlation 0.796.
func TestFigureShape(t *testing.T) {
	ctx := context.Background()
	ds, err := Tiny.Generate(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Predict(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	f4, f5, f6, f7 := Figure4(ds), Figure5(pr), Figure6(pr), Figure7(pr)
	// Fig. 4 and 6: the wrong passes lose, the model wins, and iterative
	// compilation bounds the model.
	if !(f4.WrongAvg < 1 && 1 < f6.ModelAvg && f6.ModelAvg <= f6.BestAvg) {
		t.Errorf("want wrong-avg %.3f < 1 < model-avg %.3f <= best-avg %.3f", f4.WrongAvg, f6.ModelAvg, f6.BestAvg)
	}
	// Fig. 7: the model beats -O3 on most microarchitectures.
	wins := 0
	for _, m := range f7.Model {
		if m > 1 {
			wins++
		}
	}
	if 2*wins <= len(f7.Model) {
		t.Errorf("model beats -O3 on %d of %d architectures, want a majority", wins, len(f7.Model))
	}
	// Fig. 5: the predicted surface follows the best one (paper: 0.93).
	if f5.Correlation < 0.5 {
		t.Errorf("best/predicted correlation %.3f, want at least 0.5", f5.Correlation)
	}
}
