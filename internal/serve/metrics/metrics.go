// Package metrics is a minimal, dependency-free Prometheus text-format
// exposition library: counters, labelled counters, gauges, histograms,
// and callback counters and gauges, registered on a Registry that renders the
// standard exposition format (text/plain; version=0.0.4) on demand.
//
// It exists because the repo's north star needs observability surfaces
// (request rates, latencies, cache hit ratios, queue depths) but the
// container bakes in no external modules; the subset implemented here
// is exactly what a Prometheus or OpenMetrics scraper consumes. All
// instruments are safe for concurrent use and update with atomics on
// the hot path.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything that can render itself in exposition format.
type metric interface {
	// name returns the family name (for HELP/TYPE headers).
	name() string
	// typ returns the Prometheus type: counter, gauge or histogram.
	typ() string
	// help returns the one-line family description.
	help() string
	// write appends the sample lines (without HELP/TYPE headers).
	write(w io.Writer)
}

// Registry holds registered instruments and renders them in
// registration order, so /metrics output is deterministic.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register adds a metric family, panicking on duplicate names (a
// programming error: families are registered once at startup).
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name()] {
		panic(fmt.Sprintf("metrics: duplicate family %q", m.name()))
	}
	r.names[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// Render writes every family in exposition format.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name(), m.help())
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name(), m.typ())
		m.write(w)
	}
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	nameStr, helpStr string
	v                atomic.Uint64
}

// Counter registers and returns a new counter family with one sample.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{nameStr: name, helpStr: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nameStr }
func (c *Counter) typ() string  { return "counter" }
func (c *Counter) help() string { return c.helpStr }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nameStr, c.v.Load())
}

// CounterVec is a counter family partitioned by one label. Children are
// created on first use and render sorted by label value.
type CounterVec struct {
	nameStr, helpStr, label string

	mu       sync.Mutex
	children map[string]*atomic.Uint64
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	c := &CounterVec{nameStr: name, helpStr: help, label: label, children: map[string]*atomic.Uint64{}}
	r.register(c)
	return c
}

// With returns the child counter for a label value, creating it at zero
// on first use (so a value appears in /metrics from its first touch).
func (c *CounterVec) With(value string) *atomic.Uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	child, ok := c.children[value]
	if !ok {
		child = &atomic.Uint64{}
		c.children[value] = child
	}
	return child
}

// Inc adds one to the child for a label value.
func (c *CounterVec) Inc(value string) { c.With(value).Add(1) }

// Value returns the child's current count (zero if never touched).
func (c *CounterVec) Value(value string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if child, ok := c.children[value]; ok {
		return child.Load()
	}
	return 0
}

func (c *CounterVec) name() string { return c.nameStr }
func (c *CounterVec) typ() string  { return "counter" }
func (c *CounterVec) help() string { return c.helpStr }
func (c *CounterVec) write(w io.Writer) {
	c.mu.Lock()
	vals := make([]string, 0, len(c.children))
	for v := range c.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	counts := make([]uint64, len(vals))
	for i, v := range vals {
		counts[i] = c.children[v].Load()
	}
	c.mu.Unlock()
	for i, v := range vals {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", c.nameStr, c.label, v, counts[i])
	}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	nameStr, helpStr string
	v                atomic.Int64
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{nameStr: name, helpStr: help}
	r.register(g)
	return g
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.nameStr }
func (g *Gauge) typ() string  { return "gauge" }
func (g *Gauge) help() string { return g.helpStr }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.nameStr, g.v.Load())
}

// CounterFunc is a value read from a callback at render time - the
// bridge for counters owned elsewhere (for example
// dataset.Evaluator.Stats). Registry.GaugeFunc registers the same with
// the gauge type, for values that can fall.
type CounterFunc struct {
	nameStr, helpStr, typStr string
	fn                       func() float64
}

// CounterFunc registers a callback-backed counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) *CounterFunc {
	c := &CounterFunc{nameStr: name, helpStr: help, typStr: "counter", fn: fn}
	r.register(c)
	return c
}

// GaugeFunc registers a callback-backed gauge: a value owned elsewhere
// that can fall as well as rise, such as a resident-set size.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *CounterFunc {
	c := &CounterFunc{nameStr: name, helpStr: help, typStr: "gauge", fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) name() string { return c.nameStr }
func (c *CounterFunc) typ() string  { return c.typStr }
func (c *CounterFunc) help() string { return c.helpStr }
func (c *CounterFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", c.nameStr, formatFloat(c.fn()))
}

// Histogram observes value distributions into cumulative buckets, the
// Prometheus way: le-labelled cumulative counts, plus _sum and _count.
type Histogram struct {
	nameStr, helpStr string
	bounds           []float64 // upper bounds, ascending, +Inf implicit

	counts  []atomic.Uint64 // one per bound, plus the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// DefBuckets spans sub-millisecond cache hits to multi-second cold
// profiling runs (seconds).
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram registers a histogram with the given upper bounds
// (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: buckets not ascending", name))
		}
	}
	h := &Histogram{
		nameStr: name, helpStr: help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) name() string { return h.nameStr }
func (h *Histogram) typ() string  { return "histogram" }
func (h *Histogram) help() string { return h.helpStr }
func (h *Histogram) write(w io.Writer) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nameStr, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nameStr, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.nameStr, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", h.nameStr, h.count.Load())
}

// Expose renders the whole registry into a string plus the content
// type scrapers expect, ready to write as an HTTP response body.
func (r *Registry) Expose() (body, contentType string) {
	var b strings.Builder
	r.Render(&b)
	return b.String(), "text/plain; version=0.0.4; charset=utf-8"
}
