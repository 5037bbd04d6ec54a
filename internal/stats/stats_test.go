package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestCorrelationExtremes(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if math.Abs(Correlation(a, b)-1) > 1e-12 {
		t.Error("perfect positive correlation not 1")
	}
	c := []float64{8, 6, 4, 2}
	if math.Abs(Correlation(a, c)+1) > 1e-12 {
		t.Error("perfect negative correlation not -1")
	}
	if Correlation(a, []float64{5, 5, 5, 5}) != 0 {
		t.Error("constant series must give 0")
	}
}

func TestCorrelationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		r := Correlation(a, b)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxStats(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %g/%g, want 2/4", b.Q1, b.Q3)
	}
}

func TestQuantizeBalanced(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	bins := Quantize(xs, 4)
	counts := map[int]int{}
	for _, b := range bins {
		counts[b]++
	}
	for b := 0; b < 4; b++ {
		if counts[b] != 25 {
			t.Errorf("bin %d has %d elements, want 25", b, counts[b])
		}
	}
	// Order-preserving: larger values in later bins.
	if bins[0] != 0 || bins[99] != 3 {
		t.Error("quantile bins not ordered")
	}
}

func TestMutualInformationIdentity(t *testing.T) {
	x := []int{0, 1, 0, 1, 0, 1, 0, 1}
	// I(X;X) = H(X) = log 2 for a balanced binary variable.
	if math.Abs(MutualInformation(x, x)-math.Log(2)) > 1e-12 {
		t.Error("I(X;X) must equal H(X)")
	}
	if math.Abs(Entropy(x)-math.Log(2)) > 1e-12 {
		t.Error("entropy of fair coin must be log 2")
	}
}

func TestMutualInformationIndependence(t *testing.T) {
	// Fully balanced independent pair: MI must be ~0.
	var x, y []int
	for i := 0; i < 4; i++ {
		x = append(x, i%2)
		y = append(y, i/2)
	}
	if mi := MutualInformation(x, y); mi > 1e-12 {
		t.Errorf("independent variables have MI %g", mi)
	}
}

func TestNormalizedMIBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(4)
			y[i] = rng.Intn(3)
		}
		v := NormalizedMI(x, y)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Identical variables: NMI = 1.
	x := []int{0, 1, 2, 0, 1, 2}
	if math.Abs(NormalizedMI(x, x)-1) > 1e-12 {
		t.Error("NMI(X,X) must be 1")
	}
}

func TestHintonRender(t *testing.T) {
	h := &Hinton{
		RowLabels: []string{"a", "bb"},
		ColLabels: []string{"x", "y"},
		Cells:     [][]float64{{0, 1}, {0.5, 0.2}},
	}
	out := h.Render()
	if out == "" {
		t.Fatal("empty render")
	}
	if len(out) < 10 {
		t.Error("render suspiciously short")
	}
}
