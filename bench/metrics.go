package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The two tables below are
// the single source of the names, units and directions BENCHMARK.json
// commits; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the pipeline sees. Every workload
// reports every one of them (the driver contract), so they are phrased
// per operation: an operation is one full pass of a batch workload's
// pipeline, or one request of a serving workload (README.md lists which).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "within_limit", Unit: "ratio", Better: "higher", Bound: 0.03},
}

// perLayer are the metrics of single layers (layer = package name),
// measured in the traced pass from outside the packages or read from
// their own counters. A workload reports 0 for a layer it never enters.
var perLayer = []metricDef{
	{Name: "prog.build_ms", Unit: "ms", Better: "lower"},

	{Name: "core.compile_o3_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.compile_min_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.compile_batch_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.pass_runs", Unit: "count", Better: "lower"},
	{Name: "core.pass_runs_saved", Unit: "count", Better: "higher"},

	{Name: "codegen.fingerprint_per_s", Unit: "1/s", Better: "higher"},
	{Name: "codegen.image_bytes_o3", Unit: "bytes", Better: "lower"},

	{Name: "trace.gen_mev_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.gens", Unit: "count", Better: "lower"},
	{Name: "trace.reuses", Unit: "count", Better: "higher"},

	{Name: "cpu.simulate_mev_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "cpu.batch_mevc_per_s.a12", Unit: "Mevc/s", Better: "higher"},
	{Name: "cpu.batch_mevc_per_s.a200", Unit: "Mevc/s", Better: "higher"},
	{Name: "cpu.batch_mevc_per_s.ext200", Unit: "Mevc/s", Better: "higher"},
	{Name: "cpu.sim_cycles_o3_xscale", Unit: "cycles", Better: "lower"},

	{Name: "features.vector_ns", Unit: "ns", Better: "lower"},

	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.compiles", Unit: "count", Better: "lower"},
	{Name: "dataset.simulations", Unit: "count", Better: "lower"},
	{Name: "dataset.trace_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataset.share.compile", Unit: "ratio", Better: "lower"},
	{Name: "dataset.share.trace", Unit: "ratio", Better: "lower"},
	{Name: "dataset.share.replay", Unit: "ratio", Better: "lower"},
	{Name: "dataset.share.store", Unit: "ratio", Better: "lower"},
	{Name: "dataset.share.other", Unit: "ratio", Better: "lower"},
	{Name: "dataset.attributed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataset.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "dataset.allocs_per_sim", Unit: "count", Better: "lower"},
	{Name: "dataset.save_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.load_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.regen_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.regen_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.regen_fleet_ms", Unit: "ms", Better: "lower"},

	{Name: "store.put_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.get_hit_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.get_miss_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.entries", Unit: "count", Better: "lower"},
	{Name: "store.bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "store.put_errors", Unit: "count", Better: "lower"},
	{Name: "store.remote_get_rtt_us", Unit: "us", Better: "lower"},
	{Name: "store.remote_put_rtt_us", Unit: "us", Better: "lower"},
	{Name: "store.remote_get_pipelined_per_s", Unit: "1/s", Better: "higher"},
	{Name: "store.remote_hits", Unit: "count", Better: "higher"},
	{Name: "store.remote_errors", Unit: "count", Better: "lower"},

	{Name: "wire.result_encode_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.result_decode_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.result_frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.roundtrip_us", Unit: "us", Better: "lower"},

	{Name: "sched.local_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "sched.remote_cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.redials", Unit: "count", Better: "lower"},
	{Name: "sched.requeues", Unit: "count", Better: "lower"},

	{Name: "ml.training_pairs_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.train_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.predict_us", Unit: "us", Better: "lower"},
	{Name: "ml.predict_loo_us", Unit: "us", Better: "lower"},
	{Name: "ml.save_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.load_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.artifact_bytes", Unit: "bytes", Better: "lower"},

	{Name: "experiments.loo_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.loo_predict_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.loo_eval_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.loo_distinct_configs", Unit: "count", Better: "lower"},
	{Name: "experiments.figures_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.fig4_best_avg", Unit: "ratio", Better: "higher"},
	{Name: "experiments.fig5_corr", Unit: "ratio", Better: "higher"},
	{Name: "experiments.fig6_model_avg", Unit: "ratio", Better: "higher"},
	{Name: "experiments.fig6_pct_of_max", Unit: "%", Better: "higher"},

	{Name: "serve.handler_warm_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_features_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_invalid_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.profile_sims", Unit: "count", Better: "lower"},
	{Name: "serve.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.generator_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// value is one reported number. N, Min and Max describe the samples a
// median was taken over (N = 1 for a plain reading).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// metrics maps metric name to its value for one workload and one pass.
type metrics map[string]value

// set records a plain reading.
func (m metrics) set(name string, v float64) { m[name] = value{Value: v, N: 1} }

// setMedian records the median of samples with their count and range.
func (m metrics) setMedian(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s := sorted(samples)
	m[name] = value{Value: quantile(s, 0.5), N: len(s), Min: s[0], Max: s[len(s)-1]}
}

// setLatency records the median and the tail of latency samples (ms).
func (m metrics) setLatency(samples []float64) {
	m.setMedian("latency_p50_ms", samples)
	tail := m["latency_p50_ms"]
	tail.Value = tailOf(sorted(samples))
	m["latency_tail_ms"] = tail
}

// conform returns exactly the metrics defs names, with their units; a
// metric the pass did not produce reads 0.
func (m metrics) conform(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an ascending sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailOf is the tail of a latency sample: p90 from 100 samples on - the
// choosing-metrics guide wants at least ten samples beyond the reported
// percentile - and the median below that (a batch workload's handful of
// passes qualifies nothing higher). p90, not the p95 that 200 samples
// would allow: serve-churn's misses cost what their program costs to
// compile and simulate, 35 programs in clusters with gaps between them,
// and its p95 falls in the widest gap (4 ms to 5.6 ms), so it jumps from
// one cluster to the other between runs of the same code; p90 lies inside
// a cluster.
func tailOf(s []float64) float64 {
	if len(s) >= 100 {
		return quantile(s, 0.9)
	}
	return quantile(s, 0.5)
}
