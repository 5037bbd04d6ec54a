package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/pcerr"
	"portcc/internal/uarch"
)

// fixture generates a small dataset and trains + saves its model once
// per test binary.
var fixture struct {
	once sync.Once
	ds   *dataset.Dataset
	m    *ml.Model
	info ml.ArtifactInfo
	err  error
}

func testDataset(t testing.TB) (*dataset.Dataset, *ml.Model, ml.ArtifactInfo) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := dataset.GenConfig{
			Programs: []string{"crc", "bitcnts", "qsort"},
			NumArchs: 3,
			NumOpts:  8,
			Seed:     21,
			Eval:     dataset.EvalConfig{TargetInsns: 6000, Seed: 1},
		}
		ds, err := dataset.Generate(context.Background(), cfg)
		if err != nil {
			fixture.err = err
			return
		}
		pairs, err := ds.TrainingPairs()
		if err != nil {
			fixture.err = err
			return
		}
		m := ml.Train(pairs)
		fixture.ds, fixture.m = ds, m
		fixture.info = ml.ArtifactInfo{
			DatasetSHA256:   "test-fixture",
			TrainConfig:     cfg.Describe(),
			Programs:        len(ds.Programs),
			Archs:           len(ds.Archs),
			EvalTargetInsns: cfg.Eval.TargetInsns,
			EvalMaxInsns:    cfg.Eval.MaxInsns,
			EvalSeed:        cfg.Eval.Seed,
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.ds, fixture.m, fixture.info
}

// writeArtifact saves the fixture model (or a variant) into dir.
func writeArtifact(t testing.TB, dir string, m *ml.Model, info ml.ArtifactInfo) string {
	t.Helper()
	path := filepath.Join(dir, "model.gob")
	if err := ml.Save(path, m, info); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	_, m, info := testDataset(t)
	cfg := Config{ModelPath: writeArtifact(t, t.TempDir(), m, info)}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// archSpecFor describes a dataset architecture as a request would.
func archSpecFor(a uarch.Config) ArchSpec {
	return ArchSpec{
		IL1Size: a.IL1Size, IL1Assoc: a.IL1Assoc, IL1Block: a.IL1Block,
		DL1Size: a.DL1Size, DL1Assoc: a.DL1Assoc, DL1Block: a.DL1Block,
		BTBSize: a.BTBSize, BTBAssoc: a.BTBAssoc,
		FreqMHz: a.FreqMHz, Width: a.Width,
	}
}

func postPredict(t testing.TB, h http.Handler, body any) (*httptest.ResponseRecorder, *PredictResponse) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return w, &resp
}

// TestServedPredictionsMatchInProcess pins the core serving contract:
// for every (program, arch) cell of the grid, the served config_key is
// bit-identical to an in-process Model.Predict over the dataset's
// stored feature vectors - by the program path (live profiling with the
// artifact's eval parameters) and by the raw-features path alike.
func TestServedPredictionsMatchInProcess(t *testing.T) {
	ds, m, _ := testDataset(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	for p := range ds.Programs {
		for a := range ds.Archs {
			wantCfg := m.Predict(ds.Features[p][a])
			want := wantCfg.Key()
			spec := archSpecFor(ds.Archs[a])
			w, resp := postPredict(t, h, PredictRequest{Program: ds.Programs[p], Arch: &spec})
			if resp == nil {
				t.Fatalf("%s/arch%d: HTTP %d: %s", ds.Programs[p], a, w.Code, w.Body)
			}
			if resp.ConfigKey != want {
				t.Fatalf("%s/arch%d: served %s, in-process %s", ds.Programs[p], a, resp.ConfigKey, want)
			}
			if resp.Cached {
				t.Fatalf("%s/arch%d: first query claims a cache hit", ds.Programs[p], a)
			}
			_, fresp := postPredict(t, h, PredictRequest{Features: ds.Features[p][a]})
			if fresp == nil || fresp.ConfigKey != want {
				t.Fatalf("%s/arch%d: raw-features path diverged", ds.Programs[p], a)
			}
		}
	}
	if len(ds.Programs)*len(ds.Archs) != int(s.cache.len()) {
		t.Errorf("cache holds %d entries, want one per grid cell (%d)",
			s.cache.len(), len(ds.Programs)*len(ds.Archs))
	}
}

// TestRepeatQuerySkipsProfiling pins the cache contract: a repeated
// (program, uarch) query reports cached=true and runs zero additional
// compiles or simulations.
func TestRepeatQuerySkipsProfiling(t *testing.T) {
	ds, _, _ := testDataset(t)
	s := newTestServer(t, nil)
	spec := archSpecFor(ds.Archs[0])
	req := PredictRequest{Program: ds.Programs[0], Arch: &spec}

	_, first := postPredict(t, s.Handler(), req)
	if first == nil || first.Cached {
		t.Fatalf("first query: resp=%+v, want uncached success", first)
	}
	before := s.Stats()
	_, second := postPredict(t, s.Handler(), req)
	if second == nil || !second.Cached {
		t.Fatalf("second query: resp=%+v, want cached success", second)
	}
	after := s.Stats()
	if after.Compiles != before.Compiles || after.Simulations != before.Simulations {
		t.Fatalf("repeat query profiled: compiles %d->%d simulations %d->%d",
			before.Compiles, after.Compiles, before.Simulations, after.Simulations)
	}
	if second.ConfigKey != first.ConfigKey {
		t.Fatal("cached prediction differs from the profiled one")
	}
	if s.mCacheHit.Value() != 1 || s.mCacheMiss.Value() != 1 {
		t.Errorf("cache counters hit=%d miss=%d, want 1/1", s.mCacheHit.Value(), s.mCacheMiss.Value())
	}
}

// TestConcurrentClientsBitIdentical hammers the handler from parallel
// clients (mixed programs and arches, cache hits and misses racing) and
// requires every response to be bit-identical to the in-process model.
func TestConcurrentClientsBitIdentical(t *testing.T) {
	ds, m, _ := testDataset(t)
	// Admission must not shed here (that contract has its own test), so
	// give the gate headroom beyond the client count on any machine.
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 8; c.MaxQueue = 64 })
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	const clients = 8
	const perClient = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := (c + i) % len(ds.Programs)
				a := (c * i) % len(ds.Archs)
				spec := archSpecFor(ds.Archs[a])
				body, _ := json.Marshal(PredictRequest{Program: ds.Programs[p], Arch: &spec})
				resp, err := http.Post(hs.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				wantCfg := m.Predict(ds.Features[p][a])
				if want := wantCfg.Key(); pr.ConfigKey != want {
					errs <- fmt.Errorf("%s/arch%d: served %s, want %s", ds.Programs[p], a, pr.ConfigKey, want)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadSheds pins the overload contract: with one execution slot and
// a one-deep queue, a third concurrent request is refused with a typed
// 429 + Retry-After (one second, retry_after_ms 1000 in the body) while
// both admitted requests complete correctly, and /metrics reports the
// shed.
func TestLoadSheds(t *testing.T) {
	ds, m, _ := testDataset(t)
	hold := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
	})
	s.testHookAdmitted = func() { <-hold }
	wantCfg := m.Predict(ds.Features[0][0])
	want := wantCfg.Key()
	x := ds.Features[0][0]

	type outcome struct {
		code int
		key  string
	}
	results := make(chan outcome, 2)
	do := func() {
		w, resp := postPredict(t, s.Handler(), PredictRequest{Features: x})
		o := outcome{code: w.Code}
		if resp != nil {
			o.key = resp.ConfigKey
		}
		results <- o
	}
	go do() // takes the slot, parks in the hook
	waitFor(t, func() bool { return s.gate.inFlight() == 1 })
	go do() // queues
	waitFor(t, func() bool { return s.gate.queueDepth() == 1 })

	// Queue full: this one must shed immediately, with no side effects.
	w, _ := postPredict(t, s.Handler(), PredictRequest{Features: x})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third concurrent request: HTTP %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var eresp errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &eresp); err != nil || eresp.Code != "overloaded" || eresp.RetryAfterMS != 1000 {
		t.Errorf("shed body = %s, want code overloaded and retry_after_ms 1000", w.Body)
	}

	close(hold) // release the parked requests
	for i := 0; i < 2; i++ {
		o := <-results
		if o.code != http.StatusOK || o.key != want {
			t.Fatalf("admitted request corrupted by the shed: HTTP %d key %q, want 200 %q", o.code, o.key, want)
		}
	}
	if got := s.mShed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	if got := s.mRequests.Value("overloaded"); got != 1 {
		t.Errorf(`requests_total{outcome="overloaded"} = %d, want 1`, got)
	}
	body, _ := s.metrics.Expose()
	if !strings.Contains(body, "portccs_load_shed_total 1") {
		t.Error("/metrics does not report the shed count")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHotReload swaps the artifact on disk and expects the server to
// pick it up: once however many clients race the staleness check, and
// never for a touch that leaves the bytes alone. A subsequent artifact
// with different profiling parameters must be rejected, and a malformed
// one (no normaliser: Predict would dereference nil) must fail to
// decode, while the last good model keeps serving.
func TestHotReload(t *testing.T) {
	ds, m, info := testDataset(t)
	dir := t.TempDir()
	path := writeArtifact(t, dir, m, info)
	s, err := New(Config{ModelPath: path, ReloadEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	getHealthz := func() (healthzResponse, error) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		var h healthzResponse
		err := json.Unmarshal(w.Body.Bytes(), &h)
		return h, err
	}
	healthz := func() healthzResponse {
		h, err := getHealthz()
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		return h
	}
	sha1 := healthz().ModelSHA256

	// touch(1): a new mtime over identical bytes. The check re-reads and
	// digests the file, adopts its stat identity, and swaps nothing.
	touched := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, touched, touched); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { healthz(); return s.cur.Load().ModTime.Equal(st.ModTime()) })
	if got := healthz().ModelSHA256; got != sha1 {
		t.Fatalf("touch changed the served model: sha %s -> %s", sha1, got)
	}
	if got := s.mReloads.Value("ok"); got != 1 {
		t.Errorf(`after a touch, reloads{outcome="ok"} = %d, want 1 (the initial load)`, got)
	}

	// A model variant with different hyper-parameters: different bytes,
	// same profiling parameters -> accepted. It lands by rename, as a
	// deploy would, while eight clients hammer /healthz: one of them
	// swaps it in, and the swap is counted once.
	m2 := *m
	m2.KNeighbours = 1
	info2 := info
	info2.DatasetSHA256 = "test-fixture-v2"
	next := filepath.Join(dir, "next.bin")
	if err := ml.Save(next, &m2, info2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				h, err := getHealthz()
				if err != nil {
					t.Errorf("healthz: %v", err)
					return
				}
				if h.ModelSHA256 != sha1 {
					return
				}
			}
			t.Error("swap not seen in time")
		}()
	}
	renameErr := os.Rename(next, path)
	wg.Wait()
	if renameErr != nil {
		t.Fatal(renameErr)
	}
	if got := healthz().DatasetSHA256; got != "test-fixture-v2" {
		t.Fatalf("after reload, dataset fingerprint = %s, want test-fixture-v2", got)
	}
	// The initial load at New also reports "ok", so the swap makes two.
	if got := s.mReloads.Value("ok"); got != 2 {
		t.Errorf(`reloads{outcome="ok"} = %d, want 2 (initial load + swap)`, got)
	}

	// Changed profiling parameters: rejected, old model keeps serving.
	info3 := info
	info3.EvalTargetInsns = info.EvalTargetInsns + 1
	time.Sleep(10 * time.Millisecond)
	if err := ml.Save(path, m, info3); err != nil {
		t.Fatal(err)
	}
	// Staleness checks only run on requests, so keep querying.
	waitFor(t, func() bool { healthz(); return s.mReloads.Value("rejected") >= 1 })
	if got := healthz().DatasetSHA256; got != "test-fixture-v2" {
		t.Fatalf("rejected artifact was swapped in (dataset %s)", got)
	}

	// A valid artifact cut short: a decode error, not a swap.
	info4 := info
	info4.DatasetSHA256 = "test-fixture-malformed"
	b, err := ml.Encode(m, info4)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { healthz(); return s.mReloads.Value("error") >= 1 })
	if got := healthz().DatasetSHA256; got != "test-fixture-v2" {
		t.Fatalf("malformed artifact was swapped in (dataset %s)", got)
	}

	// A sound model of another feature width (ml.Decode takes it): the
	// first program query would index past its two statistics.
	rejected := s.mReloads.Value("rejected")
	info5 := info
	info5.DatasetSHA256 = "test-fixture-narrow"
	time.Sleep(10 * time.Millisecond)
	if err := ml.Save(path, narrowModel(), info5); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { healthz(); return s.mReloads.Value("rejected") > rejected })
	if got := healthz().DatasetSHA256; got != "test-fixture-v2" {
		t.Fatalf("2-wide artifact was swapped in (dataset %s)", got)
	}

	// Predictions still work against the sane grid cell - by program too,
	// the path a narrow model would have panicked on.
	_, resp := postPredict(t, s.Handler(), PredictRequest{Features: ds.Features[0][0]})
	if resp == nil {
		t.Fatal("prediction failed after the refused reloads")
	}
	spec := archSpecFor(ds.Archs[0])
	if _, resp := postPredict(t, s.Handler(), PredictRequest{Program: ds.Programs[0], Arch: &spec}); resp == nil {
		t.Fatal("program prediction failed after the refused reloads")
	}
}

// narrowModel is a legal artifact of the wrong shape for this server:
// two features wide where features.Dim are measured.
func narrowModel() *ml.Model {
	return ml.Train([]ml.TrainingPair{{Prog: "crc", X: []float64{1, 2}}, {Prog: "qsort", Arch: 1, X: []float64{3, 5}}})
}

// TestNewRefusesWrongWidthModel: the same artifact at first load fails
// New with a typed error instead of serving until the first query panics.
func TestNewRefusesWrongWidthModel(t *testing.T) {
	_, _, info := testDataset(t)
	_, err := New(Config{ModelPath: writeArtifact(t, t.TempDir(), narrowModel(), info)})
	if !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Fatalf("New with a 2-wide model: err = %v, want ErrInvalidConfig", err)
	}
}

// hugeFeatures is well-formed JSON of the right width whose distances
// to any training set overflow: every one +Inf, every weight NaN.
func hugeFeatures() []float64 {
	x := make([]float64, features.Dim)
	for i := range x {
		x[i] = math.MaxFloat64
		if i%2 == 1 {
			x[i] = -math.MaxFloat64
		}
	}
	return x
}

// TestWriteJSONNeverShipsAnEmpty200: a value the encoder refuses is a
// typed 500 with a body, and the caller is told.
func TestWriteJSONNeverShipsAnEmpty200(t *testing.T) {
	w := httptest.NewRecorder()
	if writeJSON(w, http.StatusOK, PredictResponse{Mixture: []DimMixture{{Dim: "d", Probs: []float64{math.NaN()}}}}) {
		t.Error("writeJSON reported a NaN response as sent")
	}
	var eresp errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &eresp); w.Code != http.StatusInternalServerError || err != nil || eresp.Code != "error" {
		t.Errorf("unencodable response: HTTP %d, body %q, want a typed 500", w.Code, w.Body)
	}
}

// TestBadRequests walks the request validation space.
func TestBadRequests(t *testing.T) {
	ds, _, _ := testDataset(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	for name, tc := range map[string]struct {
		body any
		code int
	}{
		"empty":             {PredictRequest{}, http.StatusBadRequest},
		"both":              {PredictRequest{Program: "crc", Features: ds.Features[0][0]}, http.StatusBadRequest},
		"short features":    {PredictRequest{Features: []float64{1, 2}}, http.StatusBadRequest},
		"huge features":     {PredictRequest{Features: hugeFeatures()}, http.StatusBadRequest},
		"program no arch":   {PredictRequest{Program: "crc"}, http.StatusBadRequest},
		"unknown program":   {PredictRequest{Program: "no-such-program", Arch: &ArchSpec{}}, http.StatusNotFound},
		"invalid arch":      {PredictRequest{Program: "crc", Arch: &ArchSpec{IL1Size: 12345}}, http.StatusBadRequest},
		"unknown json keys": {map[string]any{"programme": "crc"}, http.StatusBadRequest},
	} {
		w, _ := postPredict(t, h, tc.body)
		if w.Code != tc.code {
			t.Errorf("%s: HTTP %d, want %d (%s)", name, w.Code, tc.code, w.Body)
		}
	}
	// Wrong method.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/predict", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: HTTP %d, want 405", w.Code)
	}
}

// TestDrainLeavesNoGoroutines pins that a full serve lifecycle -
// concurrent traffic, then server shutdown - leaves no goroutines
// behind: the serve package spawns none of its own.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s := newTestServer(t, nil)
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		ds, _, _ := testDataset(t)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				spec := archSpecFor(ds.Archs[c%len(ds.Archs)])
				body, _ := json.Marshal(PredictRequest{Program: ds.Programs[c%len(ds.Programs)], Arch: &spec})
				resp, err := http.Post(hs.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}(c)
		}
		wg.Wait()
	}()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestWarmPredictAllocs pins the allocation budget of the warm handler
// path (request decode, arch validation, the cache key, the stored
// answer written as it is - no inference, no encode), most of it the
// test's own request and recorder. Measured 38 allocs/op (39 under
// -race; 83 when a hit still ran Mixture and encoded); the pin sits just
// above so the next per-request copy of the model, the cache or the
// response is caught.
func TestWarmPredictAllocs(t *testing.T) {
	ds, _, _ := testDataset(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	spec := archSpecFor(ds.Archs[0])
	body, _ := json.Marshal(PredictRequest{Program: ds.Programs[0], Arch: &spec})
	do := func() {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	}
	do() // warm the answer cache
	if allocs := testing.AllocsPerRun(50, do); allocs > 45 {
		t.Errorf("warm predict allocates %.0f objects per request, want <= 45", allocs)
	}
}

// BenchmarkServePredict measures the warm handler path: the feature
// vector is cached, so a prediction is pure model inference plus JSON.
// The companion assertions pin that warm queries run zero compiles or
// simulations, and the alloc pin keeps the handler path flat.
func BenchmarkServePredict(b *testing.B) {
	ds, _, _ := testDataset(b)
	s, err := New(Config{ModelPath: writeArtifact(b, b.TempDir(), fixture.m, fixture.info)})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	spec := archSpecFor(ds.Archs[0])
	body, _ := json.Marshal(PredictRequest{Program: ds.Programs[0], Arch: &spec})

	do := func() int {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	if code := do(); code != http.StatusOK { // warm the cache
		b.Fatalf("warm-up: HTTP %d", code)
	}
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("HTTP %d", code)
		}
	}
	b.StopTimer()
	after := s.Stats()
	if after.Compiles != before.Compiles || after.Simulations != before.Simulations {
		b.Fatalf("warm predictions profiled: compiles %d->%d simulations %d->%d",
			before.Compiles, after.Compiles, before.Simulations, after.Simulations)
	}
}
