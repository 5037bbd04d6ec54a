package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/opt"
	"portcc/internal/stats"
	"portcc/internal/uarch"
)

// ---------------------------------------------------------------- Table 1

// Table1 renders the Table 1 counter list, with live values measured from
// one -O3 run of a reference program on the XScale (the deployment
// protocol of Section 3.4).
func Table1() (string, error) {
	ev := dataset.NewEvaluator(dataset.EvalConfig{})
	o3 := opt.O3()
	r, err := ev.Run("madplay", &o3, uarch.XScale())
	if err != nil {
		return "", err
	}
	c := features.Counters(&r)
	var b strings.Builder
	b.WriteString("Table 1: performance counters used as the program/microarchitecture representation\n")
	for i, n := range features.CounterNames() {
		fmt.Fprintf(&b, "  %-18s %8.4f   (madplay at -O3 on XScale)\n", n, c[i])
	}
	return b.String(), nil
}

// ---------------------------------------------------------------- Table 2

// Table2 renders the microarchitectural parameter space of Table 2.
func Table2() string {
	var b strings.Builder
	b.WriteString("Table 2: microarchitectural parameters (each a power of two)\n")
	row := func(name string, vals []int, xscale int, kib bool) {
		strs := make([]string, len(vals))
		for i, v := range vals {
			if kib {
				strs[i] = fmt.Sprintf("%dK", v>>10)
			} else {
				strs[i] = fmt.Sprint(v)
			}
		}
		x := fmt.Sprint(xscale)
		if kib {
			x = fmt.Sprintf("%dK", xscale>>10)
		}
		fmt.Fprintf(&b, "  %-12s %-28s XScale: %s\n", name, strings.Join(strs, " "), x)
	}
	xs := uarch.XScale()
	row("IL1 size", uarch.CacheSizes, xs.IL1Size, true)
	row("IL1 assoc", uarch.CacheAssocs, xs.IL1Assoc, false)
	row("IL1 block", uarch.CacheBlocks, xs.IL1Block, false)
	row("DL1 size", uarch.CacheSizes, xs.DL1Size, true)
	row("DL1 assoc", uarch.CacheAssocs, xs.DL1Assoc, false)
	row("DL1 block", uarch.CacheBlocks, xs.DL1Block, false)
	row("BTB entries", uarch.BTBEntries, xs.BTBSize, false)
	row("BTB assoc", uarch.BTBAssocs, xs.BTBAssoc, false)
	fmt.Fprintf(&b, "  total configurations: %d (paper: 288,000)\n", uarch.Space{}.Count())
	return b.String()
}

// ---------------------------------------------------------------- Figure 1

// Figure1Result is the Section 2 example: for three programs on three
// microarchitectures, whether each of the five headline passes is enabled
// in the best setting found.
type Figure1Result struct {
	Programs []string
	Archs    []string
	Passes   []string
	// Enabled[prog][arch][pass]
	Enabled [][][]bool
}

// figure1Passes are the five passes of the paper's segment diagrams.
var figure1Passes = []opt.Flag{
	opt.FReorderBlocks,
	opt.FUnrollLoops,
	opt.FInlineFunctions,
	opt.FScheduleInsns,
	opt.FGcse,
}

// Figure1 reproduces the Section 2 example on three named programs and
// the three XScale-derived microarchitectures of the paper (XScale,
// XScale with small instruction cache, XScale with small instruction and
// data caches), using the best of the dataset's sampled settings per
// pair. The three programs by the dataset's settings by the three
// architectures is one exploration grid, run by dataset.Explore under o.
func Figure1(ctx context.Context, ds *dataset.Dataset, o dataset.ExploreOptions) (*Figure1Result, error) {
	wanted := []string{"rijndael_e", "untoast", "madplay"}
	xs := uarch.XScale()
	smallI := xs
	smallI.IL1Size = 4 << 10
	smallI.IL1Assoc = 4
	smallID := smallI
	smallID.DL1Size = 4 << 10
	smallID.DL1Assoc = 4
	archCfgs := []uarch.Config{xs, smallI, smallID}
	res := &Figure1Result{
		Programs: wanted,
		Archs:    []string{"A: XScale", "B: small insn cache", "C: small insn+data cache"},
		Passes:   make([]string, len(figure1Passes)),
	}
	for i, f := range figure1Passes {
		res.Passes[i] = f.String()
	}
	cells := make([][]dataset.ExploreResult, len(wanted)) // [program][setting], in completion order
	for p := range cells {
		cells[p] = make([]dataset.ExploreResult, len(ds.Opts))
	}
	req := dataset.ExploreRequest{Programs: wanted, Opts: ds.Opts, Archs: archCfgs, Eval: ds.Cfg.Eval}
	for c, err := range dataset.Explore(ctx, req, o) {
		if err != nil {
			return nil, err
		}
		cells[c.ProgIndex][c.OptIndex] = c
	}
	for p := range wanted {
		// Best setting per architecture, scanning the settings in order so
		// the earliest wins a tie.
		bestO := make([]int, len(archCfgs))
		bestCyc := make([]float64, len(archCfgs))
		for oi, c := range cells[p] {
			for a, r := range c.Results {
				cyc := float64(r.Cycles) / float64(c.Runs)
				if bestCyc[a] == 0 || cyc < bestCyc[a] {
					bestCyc[a], bestO[a] = cyc, oi
				}
			}
		}
		var row [][]bool
		for a := range archCfgs {
			var flags []bool
			for _, f := range figure1Passes {
				flags = append(flags, ds.Opts[bestO[a]].Flag(f))
			}
			row = append(row, flags)
		}
		res.Enabled = append(res.Enabled, row)
	}
	return res, nil
}

// Render draws the segment diagram as a text table.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1: best-setting segment diagrams (filled = pass enabled)\n")
	fmt.Fprintf(&b, "  %-28s", "")
	for _, p := range r.Programs {
		fmt.Fprintf(&b, "%-12s", p)
	}
	b.WriteString("\n")
	for ai, arch := range r.Archs {
		fmt.Fprintf(&b, "  %-28s", arch)
		for pi := range r.Programs {
			seg := ""
			for _, on := range r.Enabled[pi][ai] {
				if on {
					seg += "#"
				} else {
					seg += "."
				}
			}
			fmt.Fprintf(&b, "%-12s", seg)
		}
		b.WriteString("\n")
	}
	b.WriteString("  passes: ")
	b.WriteString(strings.Join(r.Passes, ", "))
	b.WriteString("\n")
	return b.String()
}

// ---------------------------------------------------------------- Figure 3

// Figure3 renders the optimisation space summary of Figure 3.
func Figure3() string {
	var b strings.Builder
	b.WriteString("Figure 3: compiler optimisation space (gcc 4.2 passes and parameters)\n")
	b.WriteString("  boolean flags:\n")
	for f := 0; f < opt.NumFlags; f++ {
		fmt.Fprintf(&b, "    -%s\n", opt.Flag(f))
	}
	b.WriteString("  parameters (4 levels each):\n")
	for p := 0; p < opt.NumParams; p++ {
		lv := opt.Levels(opt.Param(p))
		fmt.Fprintf(&b, "    --%s = %v\n", opt.Param(p), lv)
	}
	raw, eff, log10 := opt.SpaceSizes()
	fmt.Fprintf(&b, "  flag combinations: %.3g raw, %.3g effective (paper: 642 million)\n", raw, eff)
	fmt.Fprintf(&b, "  full space: 10^%.2f settings (paper: 1.69e17)\n", log10)
	return b.String()
}

// ---------------------------------------------------------------- Figure 4

// Figure4Result is the per-program distribution of the maximum speedup
// available across microarchitectures (iterative compilation upper bound).
type Figure4Result struct {
	Programs []string
	Boxes    []stats.BoxStats
	// Average is the mean over programs and architectures of the best
	// speedup (paper: 1.23x).
	Average float64
	// WrongAvg / WrongWorst summarise picking the worst sampled setting
	// (paper: 0.7x average, 0.2x worst case).
	WrongAvg, WrongWorst float64
}

// Figure4 computes the Figure 4 box distribution from a dataset.
func Figure4(ds *dataset.Dataset) *Figure4Result {
	nP, nA, _ := ds.Dims()
	res := &Figure4Result{Programs: ds.Programs}
	sum := 0.0
	wrongSum := 0.0
	res.WrongWorst = 1e9
	for p := 0; p < nP; p++ {
		var bests []float64
		for a := 0; a < nA; a++ {
			best, _ := ds.BestSpeedup(p, a)
			bests = append(bests, best)
			sum += best
			worst := 1e9
			for _, s := range ds.Speedups[p][a] {
				if float64(s) < worst {
					worst = float64(s)
				}
			}
			wrongSum += worst
			if worst < res.WrongWorst {
				res.WrongWorst = worst
			}
		}
		res.Boxes = append(res.Boxes, stats.Box(bests))
	}
	res.Average = sum / float64(nP*nA)
	res.WrongAvg = wrongSum / float64(nP*nA)
	return res
}

// Render prints the per-program five-number summaries.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: distribution of maximum speedup across microarchitectures (vs -O3)\n")
	for i, p := range r.Programs {
		bx := r.Boxes[i]
		fmt.Fprintf(&b, "  %-12s min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f\n",
			p, bx.Min, bx.Q1, bx.Median, bx.Q3, bx.Max)
	}
	fmt.Fprintf(&b, "  AVERAGE best speedup: %.3fx (paper: 1.23x)\n", r.Average)
	fmt.Fprintf(&b, "  wrong passes: average %.2fx, worst %.2fx (paper: 0.7x, 0.2x)\n",
		r.WrongAvg, r.WrongWorst)
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Figure5Result is the joint program/microarchitecture speedup surface:
// best vs model-predicted, plus their correlation (paper: 0.93).
type Figure5Result struct {
	Best        []float64 // flattened [p][a]
	Predicted   []float64
	Correlation float64
	// MaxBest and MaxPredicted identify the surface peaks (the paper's
	// rijndael_e at 4.85x).
	MaxBest, MaxPredicted float64
	MaxBestProg           string
}

// Figure5 computes the surface comparison from predictions.
func Figure5(pr *Predictions) *Figure5Result {
	res := &Figure5Result{}
	nP, nA, _ := pr.DS.Dims()
	for p := 0; p < nP; p++ {
		for a := 0; a < nA; a++ {
			res.Best = append(res.Best, pr.Best[p][a])
			res.Predicted = append(res.Predicted, pr.Speedup[p][a])
			if pr.Best[p][a] > res.MaxBest {
				res.MaxBest = pr.Best[p][a]
				res.MaxBestProg = pr.DS.Programs[p]
			}
			if pr.Speedup[p][a] > res.MaxPredicted {
				res.MaxPredicted = pr.Speedup[p][a]
			}
		}
	}
	res.Correlation = stats.Correlation(res.Best, res.Predicted)
	return res
}

// Render summarises the surface.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: speedup surface over programs x microarchitectures\n")
	fmt.Fprintf(&b, "  correlation(best, predicted) = %.3f (paper: 0.93)\n", r.Correlation)
	fmt.Fprintf(&b, "  surface peak: best %.2fx (%s), predicted %.2fx (paper: 4.85x / 4.3x)\n",
		r.MaxBest, r.MaxBestProg, r.MaxPredicted)
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Figure6Result is the per-program comparison of the model against the
// iterative-compilation best, averaged over microarchitectures.
type Figure6Result struct {
	Programs []string
	Model    []float64
	Best     []float64
	// Averages over all programs and architectures.
	ModelAvg, BestAvg float64
	// PercentOfMax is the paper's 67% headline: the fraction of the
	// available improvement the model captures.
	PercentOfMax float64
}

// Figure6 computes the per-program averages.
func Figure6(pr *Predictions) *Figure6Result {
	nP, nA, _ := pr.DS.Dims()
	res := &Figure6Result{Programs: pr.DS.Programs}
	var mSum, bSum float64
	for p := 0; p < nP; p++ {
		res.Model = append(res.Model, stats.Mean(pr.Speedup[p]))
		res.Best = append(res.Best, stats.Mean(pr.Best[p]))
		mSum += res.Model[p]
		bSum += res.Best[p]
	}
	res.ModelAvg = mSum / float64(nP)
	res.BestAvg = bSum / float64(nP)
	if res.BestAvg > 1 {
		res.PercentOfMax = (res.ModelAvg - 1) / (res.BestAvg - 1) * 100
	}
	_ = nA
	return res
}

// Render prints the per-program bars.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: per-program speedup vs -O3, averaged over microarchitectures\n")
	for i, p := range r.Programs {
		fmt.Fprintf(&b, "  %-12s model=%.2fx best=%.2fx\n", p, r.Model[i], r.Best[i])
	}
	fmt.Fprintf(&b, "  AVERAGE: model %.3fx, best %.3fx -> %.0f%% of maximum (paper: 1.16x, 1.23x, 67%%)\n",
		r.ModelAvg, r.BestAvg, r.PercentOfMax)
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Figure7Result is the per-microarchitecture view: model and best speedups
// averaged over programs, sorted by increasing best.
type Figure7Result struct {
	// Order[i] is the architecture index at sorted position i.
	Order []int
	Model []float64
	Best  []float64
	// Min/Max of the model across architectures (paper: 1.08x..1.35x).
	ModelMin, ModelMax float64
}

// Figure7 computes the per-architecture averages.
func Figure7(pr *Predictions) *Figure7Result {
	nP, nA, _ := pr.DS.Dims()
	res := &Figure7Result{ModelMin: 1e9}
	model := make([]float64, nA)
	best := make([]float64, nA)
	for a := 0; a < nA; a++ {
		var ms, bs float64
		for p := 0; p < nP; p++ {
			ms += pr.Speedup[p][a]
			bs += pr.Best[p][a]
		}
		model[a] = ms / float64(nP)
		best[a] = bs / float64(nP)
	}
	res.Order = make([]int, nA)
	for i := range res.Order {
		res.Order[i] = i
	}
	sort.Slice(res.Order, func(i, j int) bool {
		return best[res.Order[i]] < best[res.Order[j]]
	})
	for _, a := range res.Order {
		res.Model = append(res.Model, model[a])
		res.Best = append(res.Best, best[a])
		if model[a] < res.ModelMin {
			res.ModelMin = model[a]
		}
		if model[a] > res.ModelMax {
			res.ModelMax = model[a]
		}
	}
	return res
}

// Render prints the sorted per-architecture series.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: per-microarchitecture speedup vs -O3 (sorted by best)\n")
	for i := range r.Order {
		fmt.Fprintf(&b, "  arch#%03d best=%.3fx model=%.3fx\n", r.Order[i], r.Best[i], r.Model[i])
	}
	fmt.Fprintf(&b, "  model range: %.2fx .. %.2fx (paper: 1.08x .. 1.35x)\n", r.ModelMin, r.ModelMax)
	return b.String()
}

// ---------------------------------------------------------------- Figure 10

// Figure10 is Figure 6 evaluated on the extended space of Section 7
// (frequency 200-600 MHz, issue width 1-2): the same model and features,
// no modification. The paper reports best 1.24x and model 1.14x.
func Figure10(pr *Predictions) *Figure6Result {
	return Figure6(pr)
}

// ------------------------------------------------- iterations to match

// IterationsResult is the Section 5.3 comparison against iterative
// compilation: how many random-search evaluations are needed to match the
// model's one-profile-run performance.
type IterationsResult struct {
	// MeanEvals averages, over pairs, the first evaluation reaching the
	// model's speedup (pairs never reached count as the sample size).
	MeanEvals float64
	// Over100 counts pairs needing more than 100 evaluations.
	Over100 int
	Pairs   int
}

// IterationsToMatch replays the dataset's random sample order as a search
// trajectory per pair and finds where it first matches the model.
func IterationsToMatch(pr *Predictions) *IterationsResult {
	ds := pr.DS
	nP, nA, nO := ds.Dims()
	res := &IterationsResult{}
	total := 0.0
	for p := 0; p < nP; p++ {
		for a := 0; a < nA; a++ {
			target := pr.Speedup[p][a]
			reached := nO - 1 // random part excludes O3 at index 0
			bestSoFar := 0.0
			for o := 1; o < nO; o++ {
				if s := float64(ds.Speedups[p][a][o]); s > bestSoFar {
					bestSoFar = s
				}
				if bestSoFar >= target {
					reached = o
					break
				}
			}
			if reached > 100 {
				res.Over100++
			}
			total += float64(reached)
			res.Pairs++
		}
	}
	if res.Pairs > 0 {
		res.MeanEvals = total / float64(res.Pairs)
	}
	return res
}

// Render summarises the comparison.
func (r *IterationsResult) Render() string {
	return fmt.Sprintf("Section 5.3: iterative compilation needs %.0f evaluations on average to match the model; %d/%d pairs need >100 (paper: ~50 average, some >100)\n",
		r.MeanEvals, r.Over100, r.Pairs)
}
