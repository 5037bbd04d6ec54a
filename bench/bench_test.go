package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"portcc/internal/dataset"
)

func smokeConfig(t *testing.T) *runConfig {
	return &runConfig{seed: 11, seconds: 0.25, smoke: true, outdir: t.TempDir(), procs: capProcs()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricSet demands exactly the metrics of defs, each finite.
func checkMetricSet(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", res.Workload, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmokeWorkloads runs both passes of every workload in -smoke shape:
// every check passes, no operation fails, and each pass emits exactly
// the metric set BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				rc := smokeConfig(t)
				res, err := runWorkload(context.Background(), w, rc, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.ok() || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: attempted %d, failed %d, failures %q", traced, res.Attempted, res.Failed, res.Failures)
				}
				if traced {
					checkMetricSet(t, res, perLayer)
					if w.name == "fleet-store" {
						checkStagedWalk(t, res, rc.outdir)
					}
				} else {
					checkMetricSet(t, res, endToEnd)
				}
			}
		})
	}
}

// checkStagedWalk holds fleet-store's staged walk to being the
// pipeline: its shares sum to one, the store has a share, and its spans
// add up to the package's own single-slot run of the same cells.
func checkStagedWalk(t *testing.T, res *result, outdir string) {
	t.Helper()
	sum := 0.0
	for _, part := range []string{"compile", "trace", "replay", "store", "other"} {
		sum += res.Metrics["dataset.share."+part].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if res.Metrics["dataset.share.store"].Value <= 0 {
		t.Error("fleet-store's staged walk spent no time in the store")
	}
	if r := res.Metrics["dataset.attributed_ratio"].Value; r < 0.5 || r > 2 {
		t.Errorf("attributed ratio %v", r)
	}
	if _, err := os.Stat(outdir + "/trace-fleet-store.json"); err != nil {
		t.Error(err)
	}
}

// TestFleetRefusesSkewedService starts the store service without the
// dataset schema version. Every shard lookup then degrades to a silent
// miss and the dataset still comes out right, only slowly: the
// benchmark must refuse that run, not time it.
func TestFleetRefusesSkewedService(t *testing.T) {
	rc := smokeConfig(t)
	rc.workdir = t.TempDir()
	rc.repeats = 1
	res, err := runFleetWith(context.Background(), rc, dataset.FormatVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ok() {
		t.Fatal("a fleet whose store service is format-skewed passed")
	}
	if got := strings.Join(res.Failures, "\n"); !strings.Contains(got, "not answered by the store service") {
		t.Fatalf("refused for the wrong reason: %s", got)
	}
	if res.Failed != res.Attempted {
		t.Errorf("failed %d of %d, want all", res.Failed, res.Attempted)
	}
}

// TestChecksFire breaks each reference in turn and demands the check
// that guards it says so.
func TestChecksFire(t *testing.T) {
	env, err := setupGrid(paperSmallGrid(true), 11)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.GenerateWith(context.Background(), env.cfg, dataset.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyCells(ds, env.modules, rand.New(rand.NewSource(1)), 6); err != nil {
		t.Fatalf("clean dataset: %v", err)
	}

	t.Run("independent path", func(t *testing.T) {
		for p := range ds.Speedups {
			for a := range ds.Speedups[p] {
				for o := 1; o < len(ds.Speedups[p][a]); o++ {
					ds.Speedups[p][a][o] = math.Nextafter32(ds.Speedups[p][a][o], 2)
				}
			}
		}
		if err := verifyCells(ds, env.modules, rand.New(rand.NewSource(1)), 6); err == nil {
			t.Error("speedups one ulp off passed the independent path")
		}
	})
	t.Run("figure shape", func(t *testing.T) {
		var ck checker
		figureValues{fig4WrongAvg: 0.8, fig6ModelAvg: 1.05, fig6BestAvg: 1.1}.checkShape(&ck)
		if !ck.ok() {
			t.Errorf("good shape refused: %q", ck.Failures)
		}
		figureValues{fig4WrongAvg: 0.8, fig6ModelAvg: 1.2, fig6BestAvg: 1.1}.checkShape(&ck)
		if ck.ok() {
			t.Error("model above best passed")
		}
	})
	t.Run("shared fingerprint", func(t *testing.T) {
		rep := report{Results: []*result{
			{Workload: "paper-small", Fingerprint: "aa"},
			{Workload: "sweep-deep", Fingerprint: "cc"},
			{Workload: "fleet-store", Fingerprint: "bb"},
		}}
		checkSharedFingerprints(&rep)
		if rep.Results[0].ok() && rep.Results[2].ok() {
			t.Error("paper-small and fleet-store disagree on the dataset and nobody noticed")
		}
		if !rep.Results[1].ok() {
			t.Error("sweep-deep has a grid of its own")
		}
	})
	t.Run("served answer", func(t *testing.T) {
		senv := &serveEnv{plan: []planned{{kind: kindProgram, key: 0, status: http.StatusOK}, {kind: kindUnknown, status: http.StatusNotFound}}}
		ref := &reference{env: senv, keys: map[int]string{0: "right"}}
		for _, c := range []struct {
			rec  record
			good bool
		}{
			{record{plan: 0, status: 200, key: "right"}, true},
			{record{plan: 0, status: 200, key: "wrong"}, false},
			{record{plan: 0, status: 429}, false},
			{record{plan: 0, status: 500}, false},
			{record{plan: 0, err: "connection reset"}, false},
			{record{plan: 1, status: 404}, true},
			{record{plan: 1, status: 200}, false},
		} {
			if why := ref.judge(&c.rec); (why == "") != c.good {
				t.Errorf("%+v judged %q", c.rec, why)
			}
		}
	})
	t.Run("metric values", func(t *testing.T) {
		w := &workload{name: "fake", run: func(context.Context, *runConfig) (*result, error) {
			res := newResult()
			res.Metrics.set("latency_p50_ms", math.NaN())
			return res, nil
		}}
		res, err := runWorkload(context.Background(), w, smokeConfig(t), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.ok() {
			t.Error("a NaN latency and four missing metrics passed")
		}
	})
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package one definition: same workloads and reasons, same metrics,
// units, directions and bounds, every name well-formed and used once.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !metricName.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (%q), want %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			name(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Error("too many metrics for the contract")
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Unit != "s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s: %+v", b.EndToEnd[0])
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestContractLine drives the command line the driver uses and reads the
// last line of standard output the way it does.
func TestContractLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		code := realMain([]string{"--workload", "sweep-wide", "--seed", "5", "--seconds", "0.2", "--trace", traced,
			"-smoke", "-outdir", t.TempDir()}, &out)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("contract line has keys %v", raw)
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced == "1" {
			want = perLayer
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %+v", traced, line)
		}
		for _, d := range want {
			if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace %s: metric %s: %+v", traced, d.Name, v)
			}
		}
	}
	if code := realMain([]string{"--workload", "no-such"}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, steady, "ok"},
		{lower, steady, scale(steady, 1.2), "regressed"},
		{lower, steady, scale(steady, 0.8), "ok"},
		{higher, steady, scale(steady, 0.8), "regressed"},
		{higher, steady, scale(steady, 1.2), "ok"},
		{lower, []float64{80, 120, 90, 110, 100, 130, 70, 100}, []float64{85, 125, 95, 105, 100, 135, 75, 100}, "unresolved"},
		// Wide spread, but every run of b beats every run of a.
		{lower, []float64{80, 120, 90, 110, 100, 130, 70, 100}, []float64{40, 60, 45, 55, 50, 65, 35, 50}, "ok"},
		{lower, []float64{100}, []float64{105}, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestCompareFiles round-trips two -out reports through -compare.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		rep := report{Results: []*result{{Workload: "sweep-wide", Metrics: metrics{
			"latency_p50_ms": {Value: latency, Unit: "ms"},
		}}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 100), write("b.json", 104), write("c.json", 130)
	var out bytes.Buffer
	if code := realMain([]string{"-compare", a + "," + b, b}, &out); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := realMain([]string{"-compare", a, c}, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("exit %d:\n%s", code, out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{workload: "t", t0: time.Now()}
	tr.spans = []span{
		{ID: 1, Layer: "dataset", Name: "window", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "core", Name: "compile", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Layer: "cpu", Name: "replay", StartNS: 50, EndNS: 90},
		{ID: 4, Parent: 3, Layer: "cache", Name: "probe", StartNS: 60, EndNS: 70},
	}
	self := tr.selfTimes()
	for layer, want := range map[string]time.Duration{"dataset": 30, "core": 30, "cpu": 30, "cache": 10} {
		if self[layer] != want {
			t.Errorf("%s self time %v, want %v", layer, self[layer], want)
		}
	}
}

func TestTailRule(t *testing.T) {
	few := []float64{1, 2, 3, 4, 5}
	if got := tailOf(few); got != 3 {
		t.Errorf("five samples: tail %v, want the median", got)
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if got := tailOf(many); math.Abs(got-899.1) > 0.01 {
		t.Errorf("thousand samples: tail %v, want p90", got)
	}
}

// TestWindowRates checks the closed loop's throughput samples: one per
// window, wrong answers and answers that came after the loop's time left
// out.
func TestWindowRates(t *testing.T) {
	at := func(ms int) record { return record{done: time.Duration(ms) * time.Millisecond} }
	recs := []record{at(10), at(20), at(499), at(500), at(990), at(1000), at(1200)}
	bad := []bool{false, true, false, false, false, false, false}
	got := windowRates(recs, bad, time.Second)
	if len(got) != 2 || got[0] != 4 || got[1] != 4 {
		t.Errorf("window rates %v, want [4 4]: two good answers in each half second", got)
	}
	if got := windowRates(recs, bad, 100*time.Millisecond); len(got) != 1 || got[0] != 10 {
		t.Errorf("a loop shorter than a window: rates %v, want [10]", got)
	}
}

// TestYardstick checks the scale's direction: a kernel that reads slower
// than the reference means a slow machine, and shrinks the times.
func TestYardstick(t *testing.T) {
	if got := scaleBetween(calibRefMS, calibRefMS); got != 1 {
		t.Errorf("scale on the reference box %v, want 1", got)
	}
	if got := scaleBetween(2*calibRefMS, 2*calibRefMS); got != 0.5 {
		t.Errorf("scale on a box half as fast %v, want 0.5", got)
	}
	if r := newCalibrator(smokeConfig(t)).read(); r <= 0 {
		t.Errorf("yardstick reads %v ms", r)
	}
}
