// Package serve is the prediction front door of the repo: an always-on
// HTTP JSON server (cmd/portccs) that answers "which optimisation
// settings should this program use on this microarchitecture?" from a
// pre-trained, versioned model artifact - the paper's Figure 2
// deployment path as a service.
//
// The serving stack has four concerns, each bounded:
//
//   - One model is loaded from an ml artifact and held warm in memory;
//     it hot-reloads when the file changes on disk (throttled mtime
//     check, content-fingerprint compare), so a retrain deploys by
//     atomically replacing one file - no restart.
//
//   - Feature vectors - the -O3 counters of a (program,
//     microarchitecture) pair - come from the program's profile: its
//     first query compiles it at -O3, generates its trace and replays
//     that trace once over a sample covering every cache, BTB, fetch
//     and pairing geometry of the space (cpu.Profile, about 10 ms); the
//     evaluator keeps binary, trace and profile resident, and every
//     later architecture is a closed-form lookup of about a
//     microsecond, bit-identical to the per-event replay. A restarted
//     server re-warms each program with its one covering replay.
//
//   - Answers are memoised in an LRU cache keyed by (program,
//     microarchitecture) with single-flighted misses: an entry keeps
//     the feature vector and the encoded response, tagged with the
//     model that computed it. A repeat query under that model writes
//     the stored bytes (no inference, no JSON encoding); after a hot
//     reload the stored vector answers again without profiling. A miss
//     encodes once and stores the cached:true twin of its answer.
//
//   - Admission control bounds concurrent predictions and the waiting
//     queue; excess load is shed immediately with HTTP 429 and a
//     Retry-After header (typed pcerr.ErrOverloaded internally) before
//     any work starts, and /metrics exposes Prometheus-text counters,
//     latency histograms, cache ratios and queue depths for the whole
//     pipeline.
//
// Endpoints: POST /v1/predict (program name or raw feature vector,
// plus a microarchitecture description), GET /healthz, GET /metrics.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/metrics"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/uarch"
)

// Config describes a prediction server.
type Config struct {
	// ModelPath is the model artifact to serve (required). The file is
	// re-checked on a ReloadEvery throttle and hot-reloaded on change.
	ModelPath string
	// CacheEntries bounds the (program, uarch) feature cache, whose
	// entries keep a feature vector and an encoded answer of about 4 KB
	// (default 1024 entries).
	CacheEntries int
	// MaxInFlight bounds concurrently executing predictions
	// (default GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds predictions waiting for an execution slot; beyond
	// it requests are shed with 429 (default 4x MaxInFlight).
	MaxQueue int
	// ReloadEvery throttles artifact staleness checks (default 1s).
	ReloadEvery time.Duration
	// Logf receives operational log lines (default: discard).
	Logf func(string, ...any)
}

func (c Config) withDefaults() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.ReloadEvery <= 0 {
		c.ReloadEvery = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the HTTP prediction service. Create with New, expose with
// Handler, and drain by shutting down the enclosing http.Server - the
// Server itself owns no goroutines, so once in-flight handlers return
// nothing lingers.
type Server struct {
	cfg   Config
	cache *featureCache
	gate  *gate
	ev    *dataset.Evaluator
	mux   *http.ServeMux

	// cur is the model in service (see model); reload serialises the
	// staleness check that may replace it, and lastCheck (unix nanos)
	// throttles that check.
	cur       atomic.Pointer[loaded]
	reload    sync.Mutex
	lastCheck atomic.Int64

	metrics    *metrics.Registry
	mRequests  *metrics.CounterVec
	mLatency   *metrics.Histogram
	mShed      *metrics.Counter
	mCacheHit  *metrics.Counter
	mCacheMiss *metrics.Counter
	mProfile   *metrics.Histogram
	mReloads   *metrics.CounterVec

	// testHookAdmitted, when non-nil, runs after admission and before
	// any prediction work - tests park it to hold slots occupied.
	testHookAdmitted func()
}

// New builds a server and eagerly loads the model artifact, failing
// fast on a missing or version-mismatched file.
func New(cfg Config) (*Server, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("serve: %w: ModelPath is required", pcerr.ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newFeatureCache(cfg.CacheEntries),
		gate:  newGate(cfg.MaxInFlight, cfg.MaxQueue),
	}
	s.initMetrics()
	first, err := readArtifact(cfg.ModelPath, nil)
	if err != nil {
		return nil, err
	}
	if err := s.acceptModel(first, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.ModelPath, err)
	}
	s.cur.Store(first)
	s.lastCheck.Store(time.Now().UnixNano())
	s.mReloads.Inc("ok")
	// The artifact's profiling parameters keep served feature vectors
	// comparable to the training distribution.
	s.ev = dataset.NewEvaluator(dataset.ArtifactEval(first.Info))

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.metrics)
	return s, nil
}

// acceptModel gates every artifact: a model of another feature width
// would index past the vectors this server measures, and a replacement
// trained with different profiling parameters would make cached and
// future feature vectors incomparable to its training distribution, so
// it is rejected (the server keeps serving the old model; deploy such a
// change with a restart instead).
func (s *Server) acceptModel(next, cur *loaded) error {
	if d := next.Model.Dim(); d != features.Dim {
		return fmt.Errorf("serve: %w: artifact models %d-wide feature vectors, this server measures %d",
			pcerr.ErrInvalidConfig, d, features.Dim)
	}
	if cur == nil {
		return nil // first load establishes the parameters
	}
	if dataset.ArtifactEval(next.Info) != dataset.ArtifactEval(cur.Info) {
		return fmt.Errorf("serve: %w: artifact profiling parameters changed %+v -> %+v; restart to adopt them",
			pcerr.ErrInvalidConfig, dataset.ArtifactEval(cur.Info), dataset.ArtifactEval(next.Info))
	}
	return nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the profiling evaluator's work ledger.
func (s *Server) Stats() dataset.Stats { return s.ev.Stats() }

// initMetrics registers every family. Point-in-time values and the
// evaluator's work ledger are callbacks read at scrape time; they read
// s.ev, which New sets before the handler can serve a scrape.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.metrics = r
	s.mRequests = r.CounterVec("portccs_requests_total",
		"Prediction requests by outcome.", "outcome")
	s.mLatency = r.Histogram("portccs_request_seconds",
		"Prediction request latency in seconds.", nil)
	s.mShed = r.Counter("portccs_load_shed_total",
		"Requests refused with 429 because the admission queue was full.")
	s.mCacheHit = r.Counter("portccs_feature_cache_hits_total",
		"Predictions served from the (program, uarch) feature cache.")
	s.mCacheMiss = r.Counter("portccs_feature_cache_misses_total",
		"Predictions that read the program's -O3 profile.")
	s.mProfile = r.Histogram("portccs_profile_seconds",
		"Feature-cache miss compute (a profile lookup, after a program's one covering replay) in seconds.", nil)
	s.mReloads = r.CounterVec("portccs_model_reloads_total",
		"Model artifact reload attempts by outcome.", "outcome")
	r.GaugeFunc("portccs_feature_cache_entries",
		"Resident feature-cache entries.", func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("portccs_inflight",
		"Predictions currently executing.", func() float64 { return float64(s.gate.inFlight()) })
	r.GaugeFunc("portccs_queue_depth",
		"Predictions waiting for an execution slot.", func() float64 { return float64(s.gate.queueDepth()) })
	stat := func(pick func(dataset.Stats) float64) func() float64 {
		return func() float64 { return pick(s.ev.Stats()) }
	}
	r.GaugeFunc("portccs_baseline_traces",
		"Programs whose -O3 trace is resident for profiling.", stat(func(st dataset.Stats) float64 { return float64(st.BaselineTraces) }))
	r.GaugeFunc("portccs_baseline_trace_bytes",
		"Approximate bytes of the resident -O3 traces.", stat(func(st dataset.Stats) float64 { return float64(st.BaselineTraceBytes) }))
	r.CounterFunc("portccs_eval_compiles_total",
		"Profiling compilations performed.", stat(func(st dataset.Stats) float64 { return float64(st.Compiles) }))
	r.CounterFunc("portccs_eval_simulations_total",
		"Profiling simulations performed.", stat(func(st dataset.Stats) float64 { return float64(st.Simulations) }))
	r.CounterFunc("portccs_eval_trace_gens_total",
		"Traces generated by the profiling evaluator.", stat(func(st dataset.Stats) float64 { return float64(st.TraceGens) }))
	r.CounterFunc("portccs_eval_trace_events_total",
		"Dynamic instructions emitted into profiling traces.", stat(func(st dataset.Stats) float64 { return float64(st.TraceEvents) }))
}

// ArchSpec is the JSON microarchitecture description of a predict
// request. Zero fields default to the XScale reference values, so a
// request only names what it varies.
type ArchSpec struct {
	IL1Size  int `json:"il1_size,omitempty"`
	IL1Assoc int `json:"il1_assoc,omitempty"`
	IL1Block int `json:"il1_block,omitempty"`
	DL1Size  int `json:"dl1_size,omitempty"`
	DL1Assoc int `json:"dl1_assoc,omitempty"`
	DL1Block int `json:"dl1_block,omitempty"`
	BTBSize  int `json:"btb_size,omitempty"`
	BTBAssoc int `json:"btb_assoc,omitempty"`
	FreqMHz  int `json:"freq_mhz,omitempty"`
	Width    int `json:"width,omitempty"`
}

// Arch resolves the spec against the XScale defaults and validates it.
func (a ArchSpec) Arch() (uarch.Config, error) {
	c := uarch.XScale()
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&c.IL1Size, a.IL1Size)
	set(&c.IL1Assoc, a.IL1Assoc)
	set(&c.IL1Block, a.IL1Block)
	set(&c.DL1Size, a.DL1Size)
	set(&c.DL1Assoc, a.DL1Assoc)
	set(&c.DL1Block, a.DL1Block)
	set(&c.BTBSize, a.BTBSize)
	set(&c.BTBAssoc, a.BTBAssoc)
	set(&c.FreqMHz, a.FreqMHz)
	set(&c.Width, a.Width)
	return c, c.Validate()
}

// PredictRequest is the body of POST /v1/predict. Exactly one of
// Program or Features must be set: Program profiles the named benchmark
// at -O3 on Arch (cached), Features supplies a pre-measured vector
// x = (d, c) directly (Arch then only annotates the response).
type PredictRequest struct {
	Program  string    `json:"program,omitempty"`
	Features []float64 `json:"features,omitempty"`
	Arch     *ArchSpec `json:"arch,omitempty"`
}

// DimMixture is one optimisation dimension of the predictive mixture
// q(y|x): the distribution over the dimension's values.
type DimMixture struct {
	Dim   string    `json:"dim"`
	Probs []float64 `json:"probs"`
}

// PredictResponse is the body of a successful prediction.
type PredictResponse struct {
	Program string `json:"program,omitempty"`
	Arch    string `json:"arch,omitempty"`
	// ConfigKey is the canonical encoding of the predicted-best setting
	// (opt.Config.Key); ConfigGCC the human-readable gcc-style flags.
	ConfigKey string `json:"config_key"`
	ConfigGCC string `json:"config_gcc"`
	// Mixture is the per-dimension predictive distribution the mode was
	// taken from (equation 1 of the paper).
	Mixture []DimMixture `json:"mixture"`
	// Cached reports that the feature vector came from the cache - no
	// profile was read for this request.
	Cached bool `json:"cached"`
	// ModelDatasetSHA256 names the training dataset of the model that
	// answered, for end-to-end traceability.
	ModelDatasetSHA256 string `json:"model_dataset_sha256"`
}

// errorResponse is the JSON error body; Code is machine-readable.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RetryAfterMS accompanies code "overloaded".
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	outcome := "ok"
	defer func() {
		s.mRequests.Inc(outcome)
		s.mLatency.Observe(time.Since(start).Seconds())
	}()

	if err := s.gate.acquire(r.Context()); err != nil {
		if errors.Is(err, pcerr.ErrOverloaded) {
			outcome = "overloaded"
			s.mShed.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{
				Error: err.Error(), Code: "overloaded", RetryAfterMS: 1000,
			})
			return
		}
		outcome = "canceled"
		writeJSON(w, statusClientClosedRequest, errorResponse{Error: err.Error(), Code: "canceled"})
		return
	}
	defer s.gate.release()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}

	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		outcome = "bad_request"
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error(), Code: "bad_request"})
		return
	}
	body, status, errResp := s.predict(&req)
	if errResp != nil {
		outcome = errResp.Code
		writeJSON(w, status, *errResp)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away while the request waited for an admission slot.
const statusClientClosedRequest = 499

// predict resolves features, queries the model, and shapes the
// response. It returns either an encoded response or an error body plus
// status. A program answer is kept in the feature cache, and a repeat
// query under the same model is answered from it unchanged.
func (s *Server) predict(req *PredictRequest) ([]byte, int, *errorResponse) {
	cur := s.model()
	resp := &PredictResponse{ModelDatasetSHA256: cur.Info.DatasetSHA256}

	var x []float64
	var key string // the cache key of a program answer
	switch {
	case req.Program != "" && req.Features != nil:
		return nil, http.StatusBadRequest, &errorResponse{Error: "set either program or features, not both", Code: "bad_request"}
	case req.Features != nil:
		if len(req.Features) != features.Dim {
			return nil, http.StatusBadRequest, &errorResponse{
				Error: fmt.Sprintf("feature vector has %d dimensions, want %d", len(req.Features), features.Dim),
				Code:  "bad_request",
			}
		}
		x = req.Features
		if req.Arch != nil {
			arch, err := req.Arch.Arch()
			if err != nil {
				return nil, http.StatusBadRequest, &errorResponse{Error: err.Error(), Code: "bad_request"}
			}
			resp.Arch = arch.String()
		}
	case req.Program != "":
		if req.Arch == nil {
			return nil, http.StatusBadRequest, &errorResponse{Error: "program prediction needs an arch to profile on", Code: "bad_request"}
		}
		arch, err := req.Arch.Arch()
		if err != nil {
			return nil, http.StatusBadRequest, &errorResponse{Error: err.Error(), Code: "bad_request"}
		}
		resp.Program, resp.Arch = req.Program, arch.String()
		key = req.Program + "|" + resp.Arch
		var stored []byte
		var hit bool
		x, stored, hit, err = s.cache.get(key, cur.Model, func() ([]float64, error) {
			start := time.Now()
			defer func() { s.mProfile.Observe(time.Since(start).Seconds()) }()
			p, err := s.ev.Profile(req.Program)
			if err != nil {
				return nil, err
			}
			res, err := p.Result(arch)
			if err != nil {
				return nil, err
			}
			return features.Vector(arch, &res), nil
		})
		if err != nil {
			if errors.Is(err, pcerr.ErrUnknownProgram) {
				return nil, http.StatusNotFound, &errorResponse{Error: err.Error(), Code: "unknown_program"}
			}
			return nil, http.StatusInternalServerError, &errorResponse{Error: err.Error(), Code: "error"}
		}
		resp.Cached = hit
		if hit {
			s.mCacheHit.Inc()
		} else {
			s.mCacheMiss.Inc()
		}
		if stored != nil {
			return stored, http.StatusOK, nil
		}
	default:
		return nil, http.StatusBadRequest, &errorResponse{Error: "set program or features", Code: "bad_request"}
	}

	body, status, errResp := answer(cur.Model, resp, x)
	if errResp == nil && key != "" {
		stored := body
		if !resp.Cached {
			stored = cachedForm(body)
		}
		s.cache.store(key, cur.Model, stored)
	}
	return body, status, errResp
}

// answer completes resp from m's predictive mixture at x and encodes it.
func answer(m *ml.Model, resp *PredictResponse, x []float64) ([]byte, int, *errorResponse) {
	mix := m.Mixture(x)
	// One NaN weight makes every entry NaN, and a weight is NaN only when
	// the nearest distance is not finite: features beyond float64's reach.
	if math.IsNaN(mix.Theta[0][0]) {
		return nil, http.StatusBadRequest, &errorResponse{Error: "feature vector is not at a finite distance from the training set", Code: "bad_request"}
	}
	cfg := mix.Mode()
	resp.ConfigKey = cfg.Key()
	resp.ConfigGCC = cfg.String()
	resp.Mixture = mixtureDims(&mix)
	body, err := encodeJSON(resp)
	if err != nil {
		return nil, http.StatusInternalServerError, encodeError(err)
	}
	return body, http.StatusOK, nil
}

// cachedFalse and cachedTrue are the encoded Cached field. JSON escapes
// every quote inside a string, so the only place an encoded response
// holds cachedFalse is that field.
var cachedFalse, cachedTrue = []byte(`"cached":false`), []byte(`"cached":true`)

// cachedForm returns the cached:true twin of an encoded cached:false
// answer - what a repeat query answers - without a second encode (nil
// if body holds no such field, so nothing is stored).
func cachedForm(body []byte) []byte {
	i := bytes.Index(body, cachedFalse)
	if i < 0 {
		return nil
	}
	return slices.Concat(body[:i], cachedTrue, body[i+len(cachedFalse):])
}

// mixtureDims flattens the mixture into named per-dimension
// distributions, each trimmed to its dimension's true value count.
func mixtureDims(mix *ml.Dist) []DimMixture {
	out := make([]DimMixture, opt.NumDims)
	probs := make([]float64, 0, opt.NumDims*opt.MaxDimSize)
	for l := 0; l < opt.NumDims; l++ {
		n := len(probs)
		probs = append(probs, mix.Theta[l][:opt.DimSize(l)]...)
		out[l] = DimMixture{Dim: opt.DimName(l), Probs: probs[n:len(probs):len(probs)]}
	}
	return out
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status string `json:"status"`
	// ModelSHA256 fingerprints the artifact file in service;
	// DatasetSHA256 the dataset it was trained from.
	ModelSHA256   string `json:"model_sha256"`
	DatasetSHA256 string `json:"dataset_sha256"`
	Pairs         int    `json:"pairs"`
	TrainConfig   string `json:"train_config"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cur := s.model()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		ModelSHA256:   cur.SHA256,
		DatasetSHA256: cur.Info.DatasetSHA256,
		Pairs:         cur.Info.Pairs,
		TrainConfig:   cur.Info.TrainConfig,
	})
}

// writeJSON encodes before it sends the status: a value the encoder
// refuses (a NaN, say) becomes a typed 500, never a 200 with no body.
// It reports whether v itself was sent.
func writeJSON(w http.ResponseWriter, status int, v any) bool {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(*encodeError(err)) // strings and an int always encode
	}
	writeBody(w, status, body)
	return err == nil
}

// encodeJSON is the one encoding of every body: encoding/json's, with
// its trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var body bytes.Buffer
	err := json.NewEncoder(&body).Encode(v)
	return body.Bytes(), err
}

// encodeError is the typed 500 of a value the encoder refused.
func encodeError(err error) *errorResponse {
	return &errorResponse{Error: "encoding the response: " + err.Error(), Code: "error"}
}

// writeBody sends an encoded body with its Content-Length, so an answer
// past net/http's 2 KB response buffer goes out whole, not chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
