package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"portcc/internal/dataset"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/uarch"
)

// freshArchs draws n distinct architectures none of the fixture's grid
// uses (the seed differs), as request specs.
func freshArchs(seed int64, n int) []ArchSpec {
	archs := uarch.Space{}.SampleN(rand.New(rand.NewSource(seed)), n)
	specs := make([]ArchSpec, n)
	for i, a := range archs {
		specs[i] = archSpecFor(a)
	}
	return specs
}

// metricValue reads one sample from GET /metrics ("" when absent).
func metricValue(t testing.TB, h http.Handler, name string) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestMissAnswersFromProfile pins the cold path: once a program has
// been queried, a feature-cache miss at a new architecture is a lookup
// in its resident profile - no compile, no trace generation, no
// simulation - however many other programs were profiled in between
// (six here), and the dashboard shows both the miss's cost and the
// memory that buys it.
func TestMissAnswersFromProfile(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	specs := freshArchs(31, 14)
	query := func(program string, spec *ArchSpec) {
		w, resp := postPredict(t, h, PredictRequest{Program: program, Arch: spec})
		if resp == nil || resp.Cached {
			t.Fatalf("%s: HTTP %d, resp %+v: want an uncached success", program, w.Code, resp)
		}
	}
	programs := prog.Names()[:7]
	for _, name := range programs {
		query(name, &specs[0])
	}
	before := s.Stats()
	const k = 5
	for i := 1; i <= k; i++ {
		query(programs[0], &specs[i])
	}
	after := s.Stats()
	if after.Compiles != before.Compiles || after.TraceGens != before.TraceGens || after.Simulations != before.Simulations {
		t.Fatalf("%d misses on a resident program: compiles %d->%d, trace gens %d->%d, simulations %d->%d; want all flat",
			k, before.Compiles, after.Compiles, before.TraceGens, after.TraceGens, before.Simulations, after.Simulations)
	}
	if got := metricValue(t, h, "portccs_profile_seconds_count"); got != fmt.Sprint(len(programs)+k) {
		t.Errorf("portccs_profile_seconds_count = %q, want %d (one observation per miss)", got, len(programs)+k)
	}
	if got := metricValue(t, h, "portccs_baseline_traces"); got != fmt.Sprint(len(programs)) {
		t.Errorf("portccs_baseline_traces = %q, want %d", got, len(programs))
	}
	if got := metricValue(t, h, "portccs_baseline_trace_bytes"); got != fmt.Sprint(after.BaselineTraceBytes) || after.BaselineTraceBytes == 0 {
		t.Errorf("portccs_baseline_trace_bytes = %q, evaluator says %d", got, after.BaselineTraceBytes)
	}
	// The miss path's allocation budget: request decode, the profile
	// lookup (none), feature vector, inference, response encode and its
	// stored cached:true twin. Most of it is the test helper's own JSON
	// round trip (BenchmarkServePredictMiss reads 52, a warm hit 38).
	next := k + 1
	if allocs := testing.AllocsPerRun(len(specs)-next-1, func() { query(programs[0], &specs[next]); next++ }); allocs > 320 {
		t.Errorf("miss on a resident program allocates %.0f objects per request, want <= 320", allocs)
	}
}

// TestBaselineMemoryBounded touches every program of the suite: the
// resident bytes are the suite's -O3 traces - the closed suite is the
// bound - and stay there however many architectures follow.
func TestBaselineMemoryBounded(t *testing.T) {
	_, _, info := testDataset(t)
	eval := dataset.ArtifactEval(info)
	ref := dataset.NewEvaluator(eval)
	o3 := opt.O3()
	var suite int64
	for _, name := range prog.Names() {
		tr, _, err := ref.Trace(name, &o3)
		if err != nil {
			t.Fatal(err)
		}
		suite += int64(len(tr.Events))*16 + 4096
	}
	specs := freshArchs(32, 2)
	touchAll := func(h http.Handler, spec *ArchSpec) {
		for _, name := range prog.Names() {
			if w, resp := postPredict(t, h, PredictRequest{Program: name, Arch: spec}); resp == nil {
				t.Fatalf("%s: HTTP %d: %s", name, w.Code, w.Body)
			}
		}
	}

	s := newTestServer(t, nil)
	touchAll(s.Handler(), &specs[0])
	first := metricValue(t, s.Handler(), "portccs_baseline_trace_bytes")
	touchAll(s.Handler(), &specs[1])
	st := s.Stats()
	if st.BaselineTraces != int64(len(prog.Names())) || st.BaselineTraceBytes > suite {
		t.Errorf("%d baselines / %d bytes resident, suite is %d programs / %d bytes", st.BaselineTraces, st.BaselineTraceBytes, len(prog.Names()), suite)
	}
	if got := metricValue(t, s.Handler(), "portccs_baseline_trace_bytes"); got != first || got != fmt.Sprint(st.BaselineTraceBytes) {
		t.Errorf("portccs_baseline_trace_bytes %s after one pass, %s after two, evaluator says %d", first, got, st.BaselineTraceBytes)
	}
}

// TestRestartRewarmsWithOneReplay runs two server lifetimes, nothing
// persisted between them: each answers four fresh architectures of one
// program with one compile and one covering replay, and both give the
// same answers.
func TestRestartRewarmsWithOneReplay(t *testing.T) {
	specs := freshArchs(33, 4)
	var keys [2][]string
	for life := range keys {
		s := newTestServer(t, nil)
		for i := range specs {
			_, resp := postPredict(t, s.Handler(), PredictRequest{Program: "crc", Arch: &specs[i]})
			if resp == nil || resp.Cached {
				t.Fatalf("lifetime %d arch %d: resp %+v, want an uncached success", life, i, resp)
			}
			keys[life] = append(keys[life], resp.ConfigKey)
		}
		p, err := s.ev.Profile("crc")
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Compiles != 1 || st.DataSweeps != 1 || st.Simulations != p.Sims() {
			t.Errorf("lifetime %d: %+v; want one compile and one covering replay of %d simulations", life, st, p.Sims())
		}
	}
	if fmt.Sprint(keys[0]) != fmt.Sprint(keys[1]) {
		t.Errorf("restart changed the answers: %v -> %v", keys[0], keys[1])
	}
}

// BenchmarkServePredictMiss measures the cold handler path on a
// resident program: a new architecture every iteration, so every
// request misses the feature cache and pays one profile lookup - and,
// pinned below, no compile, trace generation or simulation.
func BenchmarkServePredictMiss(b *testing.B) {
	testDataset(b)
	s, err := New(Config{ModelPath: writeArtifact(b, b.TempDir(), fixture.m, fixture.info)})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	specs := freshArchs(34, b.N+1)
	bodies := make([][]byte, len(specs))
	for i := range specs {
		bodies[i], _ = json.Marshal(PredictRequest{Program: "qsort", Arch: &specs[i]})
	}
	do := func(body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	}
	do(bodies[b.N]) // first touch: compile, probe, resident trace, profile
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(bodies[i])
	}
	b.StopTimer()
	after := s.Stats()
	if after.Compiles != before.Compiles || after.TraceGens != before.TraceGens || after.Simulations != before.Simulations {
		b.Fatalf("misses did more than a profile lookup: compiles %d->%d, trace gens %d->%d, simulations %d->%d over %d requests",
			before.Compiles, after.Compiles, before.TraceGens, after.TraceGens, before.Simulations, after.Simulations, b.N)
	}
}

// FuzzPredictBody throws arbitrary bytes at POST /v1/predict: the
// decode surface must never panic and never answer 5xx - every outcome
// is a 200 whose config_key is a real setting and whose mixture is
// finite, or a typed JSON error. Each accepted body is sent twice: the
// second answer is the first with "cached":false turned true (a program
// query, now answered from the feature cache) or unchanged.
func FuzzPredictBody(f *testing.F) {
	ds, _, _ := testDataset(f)
	spec := archSpecFor(ds.Archs[0])
	for _, body := range []any{
		PredictRequest{},
		PredictRequest{Program: "crc", Features: ds.Features[0][0]},
		PredictRequest{Features: []float64{1, 2}},
		PredictRequest{Program: "crc"},
		PredictRequest{Program: "no-such-program", Arch: &ArchSpec{}},
		PredictRequest{Program: "crc", Arch: &ArchSpec{IL1Size: 12345}},
		map[string]any{"programme": "crc"},
		PredictRequest{Program: "crc", Arch: &spec},
		PredictRequest{Features: ds.Features[0][0], Arch: &spec},
		PredictRequest{Features: hugeFeatures()},
	} {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	h := newTestServer(f, nil).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
		if w.Code >= 500 {
			t.Fatalf("HTTP %d for body %q: %s", w.Code, body, w.Body)
		}
		if w.Code == http.StatusOK {
			var resp PredictResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			if _, err := opt.ParseKey(resp.ConfigKey); err != nil {
				t.Fatalf("200 with config_key %q: %v", resp.ConfigKey, err)
			}
			for _, d := range resp.Mixture {
				for _, p := range d.Probs {
					if math.IsNaN(p) || math.IsInf(p, 0) {
						t.Fatalf("200 with a non-finite probability in %q for body %q", d.Dim, body)
					}
				}
			}
			again := httptest.NewRecorder()
			h.ServeHTTP(again, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body)))
			want := w.Body.Bytes()
			if resp.Program != "" {
				want = bytes.Replace(want, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			}
			if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), want) {
				t.Fatalf("repeat of body %q: HTTP %d\n got %s\nwant %s", body, again.Code, again.Body, want)
			}
			return
		}
		var eresp errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || eresp.Code == "" || eresp.Error == "" {
			t.Fatalf("HTTP %d without a typed JSON error: %s", w.Code, w.Body)
		}
	})
}
