// Package stats provides the statistical machinery behind the paper's
// analysis figures: normalised mutual information for the Hinton diagrams
// (Figures 8 and 9), correlation coefficients (Section 5.2's 0.93), and
// box-plot summaries (Figure 4).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Correlation returns the Pearson correlation coefficient of two equally
// long samples (0 when degenerate).
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// BoxStats is the five-number summary drawn in Figure 4.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary of a sample.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		idx := p * float64(len(s)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		if lo == hi {
			return s[lo]
		}
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return BoxStats{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

// Quantize maps a continuous sample onto nbins equal-population bins
// (quantile binning), returning the bin index per element. Used to
// discretise speedups and counter values for mutual information.
func Quantize(xs []float64, nbins int) []int {
	n := len(xs)
	out := make([]int, n)
	if n == 0 || nbins < 2 {
		return out
	}
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, n)
	for i, x := range xs {
		s[i] = kv{x, i}
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].v != s[b].v {
			return s[a].v < s[b].v
		}
		return s[a].i < s[b].i
	})
	for rank, e := range s {
		bin := rank * nbins / n
		if bin >= nbins {
			bin = nbins - 1
		}
		out[e.i] = bin
	}
	return out
}

// MutualInformation computes I(X;Y) in nats between two discrete samples.
func MutualInformation(x, y []int) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	joint := map[[2]int]float64{}
	px := map[int]float64{}
	py := map[int]float64{}
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		joint[[2]int{x[i], y[i]}] += inv
		px[x[i]] += inv
		py[y[i]] += inv
	}
	mi := 0.0
	for k, pxy := range joint {
		mi += pxy * math.Log(pxy/(px[k[0]]*py[k[1]]))
	}
	if mi < 0 {
		mi = 0 // numerical noise
	}
	return mi
}

// Entropy computes H(X) in nats of a discrete sample.
func Entropy(x []int) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	p := map[int]float64{}
	inv := 1.0 / float64(n)
	for _, v := range x {
		p[v] += inv
	}
	h := 0.0
	for _, pv := range p {
		h -= pv * math.Log(pv)
	}
	return h
}

// NormalizedMI returns I(X;Y)/sqrt(H(X)H(Y)) in [0,1], the normalised
// mutual information plotted as box areas in the Hinton diagrams.
func NormalizedMI(x, y []int) float64 {
	hx, hy := Entropy(x), Entropy(y)
	if hx == 0 || hy == 0 {
		return 0
	}
	v := MutualInformation(x, y) / math.Sqrt(hx*hy)
	if v > 1 {
		v = 1
	}
	return v
}

// Hinton is a labelled matrix of box magnitudes in [0,1], the data behind
// Figures 8 and 9.
type Hinton struct {
	RowLabels []string
	ColLabels []string
	Cells     [][]float64 // [row][col]
}

// Render draws the Hinton diagram as fixed-width text, largest boxes as
// the biggest glyphs, for terminal inspection of Figures 8 and 9.
func (h *Hinton) Render() string {
	glyphs := []rune{' ', '.', ':', 'o', 'O', '#', '@'}
	out := ""
	width := 0
	for _, r := range h.RowLabels {
		if len(r) > width {
			width = len(r)
		}
	}
	for i, row := range h.Cells {
		out += pad(h.RowLabels[i], width) + " |"
		for _, v := range row {
			g := int(v * float64(len(glyphs)-1))
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			if g < 0 {
				g = 0
			}
			out += string(glyphs[g]) + " "
		}
		out += "\n"
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s = s + " "
	}
	return s
}
