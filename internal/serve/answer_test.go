package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"portcc/internal/features"
	"portcc/internal/ml"
)

// freshAnswer encodes, with json.Marshal, the response the uncached path
// builds for program on arch from the feature vector x under m.
func freshAnswer(t *testing.T, m *ml.Model, sha, program, arch string, x []float64, cached bool) []byte {
	t.Helper()
	mix := m.Mixture(x)
	cfg := mix.Mode()
	resp := PredictResponse{
		Program: program, Arch: arch,
		ConfigKey: cfg.Key(), ConfigGCC: cfg.String(),
		Mixture: mixtureDims(&mix), Cached: cached, ModelDatasetSHA256: sha,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// servedFeatures is the feature vector the server's profile gives for a
// request, computed outside the cache.
func servedFeatures(t *testing.T, s *Server, program string, spec ArchSpec) []float64 {
	t.Helper()
	arch, err := spec.Arch()
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.ev.Profile(program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Result(arch)
	if err != nil {
		t.Fatal(err)
	}
	return features.Vector(arch, &res)
}

// TestCachedAnswerMatchesComputed: for every (program, arch) cell of the
// test dataset, the first answer is a fresh encode of the uncached path,
// and the repeat - answered from the stored bytes - is that encode with
// cached:true.
func TestCachedAnswerMatchesComputed(t *testing.T) {
	ds, m, info := testDataset(t)
	s := newTestServer(t, nil)
	h := s.Handler()
	for _, program := range ds.Programs {
		for a := range ds.Archs {
			spec := archSpecFor(ds.Archs[a])
			req := PredictRequest{Program: program, Arch: &spec}
			w1, _ := postPredict(t, h, req)
			w2, _ := postPredict(t, h, req)
			x := servedFeatures(t, s, program, spec)
			arch := ds.Archs[a].String()
			if want := freshAnswer(t, m, info.DatasetSHA256, program, arch, x, false); !bytes.Equal(w1.Body.Bytes(), want) {
				t.Fatalf("%s/arch%d miss:\n got %s\nwant %s", program, a, w1.Body, want)
			}
			if want := freshAnswer(t, m, info.DatasetSHA256, program, arch, x, true); !bytes.Equal(w2.Body.Bytes(), want) {
				t.Fatalf("%s/arch%d hit:\n got %s\nwant %s", program, a, w2.Body, want)
			}
			if _, stored := s.storedAnswer(program, arch); !bytes.Equal(stored, w2.Body.Bytes()) {
				t.Fatalf("%s/arch%d: the hit did not answer from the stored bytes", program, a)
			}
		}
	}
	if hits, misses := s.mCacheHit.Value(), s.mCacheMiss.Value(); hits != misses || int(misses) != len(ds.Programs)*len(ds.Archs) {
		t.Errorf("cache counters hit=%d miss=%d, want one of each per cell", hits, misses)
	}
}

// storedAnswer reads the model tag and bytes stored for a program query.
func (s *Server) storedAnswer(program, arch string) (*ml.Model, []byte) {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.vecs[program+"|"+arch]
	if !ok {
		return nil, nil
	}
	e := el.Value.(*cacheEntry)
	return e.model, e.answer
}

// TestReloadRecomputesFromStoredFeatures: after an artifact swap, a
// repeat query answers with the new model - its key, mixture and
// model_dataset_sha256 - still cached:true and without a profile; after
// a touch, which keeps the model, the stored bytes are served as they
// are.
func TestReloadRecomputesFromStoredFeatures(t *testing.T) {
	ds, m, info := testDataset(t)
	dir := t.TempDir()
	path := writeArtifact(t, dir, m, info)
	s, err := New(Config{ModelPath: path, ReloadEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	spec := archSpecFor(ds.Archs[1])
	program, arch := ds.Programs[1], ds.Archs[1].String()
	req := PredictRequest{Program: program, Arch: &spec}
	postPredict(t, h, req)
	if w, _ := postPredict(t, h, req); !bytes.Contains(w.Body.Bytes(), []byte(`"cached":true`)) {
		t.Fatalf("repeat query: %s", w.Body)
	}
	profiles := metricValue(t, h, "portccs_profile_seconds_count")
	before := s.Stats()

	m2 := *m
	m2.KNeighbours = 1
	info2 := info
	info2.DatasetSHA256 = "test-fixture-v2"
	next := filepath.Join(dir, "next.bin")
	if err := ml.Save(next, &m2, info2); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.model().Info.DatasetSHA256 == info2.DatasetSHA256 })
	swapped := s.cur.Load().Model

	w, resp := postPredict(t, h, req)
	if resp == nil || !resp.Cached {
		t.Fatalf("query after the swap: HTTP %d %s, want a cached success", w.Code, w.Body)
	}
	x := servedFeatures(t, s, program, spec)
	if want := freshAnswer(t, swapped, info2.DatasetSHA256, program, arch, x, true); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("query after the swap:\n got %s\nwant %s", w.Body, want)
	}
	if got := metricValue(t, h, "portccs_profile_seconds_count"); got != profiles {
		t.Errorf("portccs_profile_seconds_count %s -> %s: the swap re-profiled", profiles, got)
	}
	if after := s.Stats(); after != before {
		t.Errorf("the swap moved the evaluator: %+v -> %+v", before, after)
	}
	tag, stored := s.storedAnswer(program, arch)
	if tag != swapped || !bytes.Equal(stored, w.Body.Bytes()) {
		t.Fatal("the new model's answer did not replace the stored one")
	}

	touched := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, touched, touched); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.model().ModTime.Equal(st.ModTime()) })
	w2, _ := postPredict(t, h, req)
	if !bytes.Equal(w2.Body.Bytes(), stored) {
		t.Fatalf("query after a touch:\n got %s\nwant %s", w2.Body, stored)
	}
	if tag2, stored2 := s.storedAnswer(program, arch); tag2 != swapped || &stored2[0] != &stored[0] {
		t.Error("a touch replaced the stored answer: the query recomputed it")
	}
	if hits := s.mCacheHit.Value(); hits != 3 {
		t.Errorf("portccs_feature_cache_hits_total = %d, want 3", hits)
	}
}

// TestAnswersCarryContentLength: over a real connection a prediction
// answer (about 4 KB, past net/http's 2 KB buffer) and an error answer
// both go out with their length, not chunked.
func TestAnswersCarryContentLength(t *testing.T) {
	ds, _, _ := testDataset(t)
	s := newTestServer(t, nil)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	spec := archSpecFor(ds.Archs[0])
	for _, req := range []PredictRequest{
		{Program: ds.Programs[0], Arch: &spec},
		{Program: ds.Programs[0], Arch: &spec}, // the stored answer
		{Features: ds.Features[0][0]},
		{Program: "no-such-program", Arch: &spec},
	} {
		data, _ := json.Marshal(req)
		resp, err := http.Post(hs.URL+"/v1/predict", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("HTTP %d (%d bytes)", resp.StatusCode, len(body))
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d", what, resp.ContentLength)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v", what, resp.TransferEncoding)
		}
	}
}

// TestConcurrentHitsAcrossReload: eight clients repeat every cell of the
// grid while the artifact is swapped under them. Each answer is, byte
// for byte, one model's cached:true answer for its cell, and once the
// swap has landed every cell answers the new model's.
func TestConcurrentHitsAcrossReload(t *testing.T) {
	ds, m, info := testDataset(t)
	dir := t.TempDir()
	path := writeArtifact(t, dir, m, info)
	s, err := New(Config{ModelPath: path, ReloadEvery: time.Nanosecond, MaxInFlight: 8, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	m2 := *m
	m2.KNeighbours = 1
	info2 := info
	info2.DatasetSHA256 = "test-fixture-v2"
	next := filepath.Join(dir, "next.bin")
	if err := ml.Save(next, &m2, info2); err != nil {
		t.Fatal(err)
	}

	type cell struct {
		req              PredictRequest
		body, old, fresh []byte
	}
	var cells []cell
	for _, program := range ds.Programs {
		for a := range ds.Archs {
			spec := archSpecFor(ds.Archs[a])
			req := PredictRequest{Program: program, Arch: &spec}
			postPredict(t, h, req)
			x := servedFeatures(t, s, program, spec)
			arch := ds.Archs[a].String()
			body, _ := json.Marshal(req)
			cells = append(cells, cell{req, body,
				freshAnswer(t, m, info.DatasetSHA256, program, arch, x, true),
				freshAnswer(t, &m2, info2.DatasetSHA256, program, arch, x, true)})
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4*len(cells); i++ {
				cl := &cells[(c+i)%len(cells)]
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(cl.body)))
				if got := w.Body.Bytes(); !bytes.Equal(got, cl.old) && !bytes.Equal(got, cl.fresh) {
					t.Errorf("%s on %+v: HTTP %d, an answer of neither model: %s", cl.req.Program, *cl.req.Arch, w.Code, got)
					return
				}
			}
		}(c)
	}
	if err := os.Rename(next, path); err != nil {
		t.Error(err)
	}
	wg.Wait()
	waitFor(t, func() bool { return s.model().Info.DatasetSHA256 == info2.DatasetSHA256 })
	for _, cl := range cells {
		if w, _ := postPredict(t, h, cl.req); !bytes.Equal(w.Body.Bytes(), cl.fresh) {
			t.Fatalf("%s after the swap:\n got %s\nwant %s", cl.req.Program, w.Body, cl.fresh)
		}
	}
}
