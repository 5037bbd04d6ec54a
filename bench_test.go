// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artefact at the
// benchmark scale and reports the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Scale: set PORTCC_SCALE=tiny|small|medium|paper (unset means tiny, for
// quick runs; the numbers in EXPERIMENTS.md use medium or larger). The
// dataset and leave-one-out predictions are computed once per scale and
// shared by the benchmarks, mirroring the paper's one-off training cost.
// Throughput is not measured here: `go run ./bench` is the one ledger.
package portcc_test

import (
	"context"
	"os"
	"sync"
	"testing"

	"portcc/internal/dataset"
	"portcc/internal/experiments"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/trace"
	"portcc/internal/uarch"

	"portcc/internal/core"
	"portcc/internal/cpu"
)

func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	name := os.Getenv("PORTCC_SCALE")
	if name == "" {
		return experiments.Tiny
	}
	scale, ok := experiments.ScaleByName(name)
	if !ok {
		b.Fatalf("PORTCC_SCALE: unknown scale %q", name)
	}
	return scale
}

var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
	benchPR   *experiments.Predictions
	benchErr  error
)

func benchData(b *testing.B) (*dataset.Dataset, *experiments.Predictions) {
	b.Helper()
	scale := benchScale(b)
	benchOnce.Do(func() {
		ds, err := scale.Generate(context.Background(), false)
		if err != nil {
			benchErr = err
			return
		}
		pr, err := experiments.Predict(context.Background(), ds)
		if err != nil {
			benchErr = err
			return
		}
		benchDS, benchPR = ds, pr
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchPR
}

// BenchmarkTable1Counters measures the deployment profiling run: one -O3
// simulation on the XScale producing the 11 Table 1 counters.
func BenchmarkTable1Counters(b *testing.B) {
	m := prog.MustBuild("madplay")
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Generate(p, trace.Config{Runs: 2, MaxInsns: 200000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := cpu.Simulate(tr, uarch.XScale())
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
	b.ReportMetric(float64(tr.Insns()), "insns/run")
}

// BenchmarkTable2Space samples the 288,000-configuration design space.
func BenchmarkTable2Space(b *testing.B) {
	if (uarch.Space{}).Count() != 288000 {
		b.Fatal("space size drifted from Table 2")
	}
	for i := 0; i < b.N; i++ {
		space := uarch.Space{}
		_ = space.Count()
	}
	b.ReportMetric(288000, "configs")
}

// BenchmarkFigure1Example regenerates the Section 2 segment diagrams.
func BenchmarkFigure1Example(b *testing.B) {
	ds, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(context.Background(), ds, dataset.ExploreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Space reports the optimisation-space sizes.
func BenchmarkFigure3Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, _ = opt.SpaceSizes()
	}
	raw, eff, log10 := opt.SpaceSizes()
	b.ReportMetric(raw, "raw-combos")
	b.ReportMetric(eff, "effective-combos")
	b.ReportMetric(log10, "log10-full-space")
}

// BenchmarkFigure4MaxSpeedup regenerates the per-program best-speedup
// distribution; the reported average corresponds to the paper's 1.23x.
func BenchmarkFigure4MaxSpeedup(b *testing.B) {
	ds, _ := benchData(b)
	var f4 *experiments.Figure4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 = experiments.Figure4(ds)
	}
	b.ReportMetric(f4.Average, "best-avg-x")
	b.ReportMetric(f4.WrongAvg, "wrong-avg-x")
	b.ReportMetric(f4.WrongWorst, "wrong-worst-x")
}

// BenchmarkFigure5Surface regenerates the best-vs-predicted surface and
// reports the correlation (paper: 0.93).
func BenchmarkFigure5Surface(b *testing.B) {
	_, pr := benchData(b)
	var f5 *experiments.Figure5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f5 = experiments.Figure5(pr)
	}
	b.ReportMetric(f5.Correlation, "correlation")
	b.ReportMetric(f5.MaxBest, "surface-peak-x")
}

// BenchmarkFigure6PerProgram regenerates the per-program model-vs-best
// comparison (paper: model 1.16x = 67% of best 1.23x).
func BenchmarkFigure6PerProgram(b *testing.B) {
	_, pr := benchData(b)
	var f6 *experiments.Figure6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6 = experiments.Figure6(pr)
	}
	b.ReportMetric(f6.ModelAvg, "model-avg-x")
	b.ReportMetric(f6.BestAvg, "best-avg-x")
	b.ReportMetric(f6.PercentOfMax, "percent-of-max")
}

// BenchmarkFigure7PerArch regenerates the per-microarchitecture view
// (paper: model 1.08x..1.35x).
func BenchmarkFigure7PerArch(b *testing.B) {
	_, pr := benchData(b)
	var f7 *experiments.Figure7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f7 = experiments.Figure7(pr)
	}
	b.ReportMetric(f7.ModelMin, "model-min-x")
	b.ReportMetric(f7.ModelMax, "model-max-x")
}

// BenchmarkFigure8Hinton regenerates the optimisation/program mutual
// information diagram.
func BenchmarkFigure8Hinton(b *testing.B) {
	ds, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := experiments.Figure8(ds)
		if len(h.Cells) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkFigure9Hinton regenerates the optimisation/feature mutual
// information diagram.
func BenchmarkFigure9Hinton(b *testing.B) {
	ds, _ := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := experiments.Figure9(ds)
		if len(h.Cells) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkFigure10Extended evaluates the unmodified model on the Section 7
// extended space (paper: best 1.24x, model 1.14x).
func BenchmarkFigure10Extended(b *testing.B) {
	scale := benchScale(b)
	var f10 *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		ds, err := scale.Generate(context.Background(), true)
		if err != nil {
			b.Fatal(err)
		}
		pr, err := experiments.Predict(context.Background(), ds)
		if err != nil {
			b.Fatal(err)
		}
		f10 = experiments.Figure10(pr)
	}
	b.ReportMetric(f10.ModelAvg, "model-avg-x")
	b.ReportMetric(f10.BestAvg, "best-avg-x")
}

// BenchmarkIterationsToMatch reproduces the Section 5.3 comparison
// (paper: ~50 random-search evaluations to match the model).
func BenchmarkIterationsToMatch(b *testing.B) {
	_, pr := benchData(b)
	var it *experiments.IterationsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it = experiments.IterationsToMatch(pr)
	}
	b.ReportMetric(it.MeanEvals, "evals-to-match")
}

// BenchmarkAblationK reproduces the Section 3.3.2 claim that the model is
// insensitive to the neighbour count around K=7.
func BenchmarkAblationK(b *testing.B) {
	ds, _ := benchData(b)
	var ab *experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		ab, err = experiments.Ablation(context.Background(), ds, dataset.ExploreOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, k := range ab.Ks {
		b.ReportMetric(ab.KAvg[i], "K"+string(rune('0'+k/10))+string(rune('0'+k%10))+"-avg-x")
	}
}
