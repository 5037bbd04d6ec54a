package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.")
	g := r.Gauge("depth", "Depth.")
	c.Inc()
	c.Add(2)
	g.Set(7)
	g.Add(-3)
	body, ctype := r.Expose()
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("content type %q lacks the exposition version", ctype)
	}
	for _, want := range []string{
		"# HELP requests_total Requests.",
		"# TYPE requests_total counter",
		"requests_total 3",
		"# TYPE depth gauge",
		"depth 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	if c.Value() != 3 || g.Value() != 4 {
		t.Errorf("values %d/%d, want 3/4", c.Value(), g.Value())
	}
}

func TestCounterVecSortedChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("outcomes_total", "By outcome.", "outcome")
	v.Inc("zebra")
	v.Inc("alpha")
	v.Inc("alpha")
	body, _ := r.Expose()
	ia := strings.Index(body, `outcomes_total{outcome="alpha"} 2`)
	iz := strings.Index(body, `outcomes_total{outcome="zebra"} 1`)
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("children missing or unsorted:\n%s", body)
	}
	if v.Value("alpha") != 2 || v.Value("never") != 0 {
		t.Error("Value accessor wrong")
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	body, _ := r.Expose()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
}

// TestHistogramBoundary pins the le contract: an observation equal to a
// bound lands in that bound's bucket (le is <=).
func TestHistogramBoundary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "B.", []float64{1, 2})
	h.Observe(1)
	body, _ := r.Expose()
	if !strings.Contains(body, `b_bucket{le="1"} 1`) {
		t.Fatalf("observation at the bound missed its bucket:\n%s", body)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.CounterFunc("work_total", "Work.", func() float64 { n++; return n })
	if body, _ := r.Expose(); !strings.Contains(body, "# TYPE work_total counter\nwork_total 1") {
		t.Errorf("first render:\n%s", body)
	}
	if body, _ := r.Expose(); !strings.Contains(body, "work_total 2") {
		t.Error("callback not re-evaluated per render")
	}
}

// TestGaugeFunc pins the exported type of a callback value that falls:
// a scraper that reads "counter" treats every drop as a reset.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 5.0
	r.GaugeFunc("resident_entries", "Resident entries.", func() float64 { n -= 2; return n })
	if body, _ := r.Expose(); !strings.Contains(body, "# TYPE resident_entries gauge\nresident_entries 3") {
		t.Errorf("first render:\n%s", body)
	}
	if body, _ := r.Expose(); !strings.Contains(body, "resident_entries 1") {
		t.Error("callback not re-evaluated per render")
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate family name did not panic")
		}
	}()
	r.Counter("dup", "y")
}

func TestBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("h", "x", []float64{1, 1})
}

func TestFormatFloatInf(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatFloat(+Inf) = %q", got)
	}
}

// TestConcurrentInstruments exercises every instrument from parallel
// goroutines while rendering; run under -race this pins thread safety.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	v := r.CounterVec("v", "v", "l")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.Inc("a")
				g.Add(1)
				h.Observe(float64(i) / 1000)
				if i%100 == 0 {
					r.Expose()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 4000 || v.Value("a") != 4000 || g.Value() != 4000 || h.Count() != 4000 {
		t.Fatalf("lost updates: c=%d v=%d g=%d h=%d", c.Value(), v.Value("a"), g.Value(), h.Count())
	}
}
