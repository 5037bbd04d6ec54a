package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/features"
	"portcc/internal/ml"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/serve"
	"portcc/internal/uarch"
)

// serveSpec is one serving workload: the key set against the server's
// feature cache, the open-loop rate and the latency limit.
type serveSpec struct {
	name     string
	programs []string
	// archs per program: the key set is programs x archs.
	archs int
	// cacheEntries is the server's feature-cache size (0 = its default).
	cacheEntries int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// limit is the latency a correct answer must arrive within to count
	// in within_limit.
	limit time.Duration
	// train is the grid the served model is trained on.
	train gridSpec
}

// trainGrid is the served model's training grid: the paper-small
// programs and architectures, so the model has the same 420 pairs and
// Mixture costs what it costs there, with a third of the settings - the
// settings count changes the model's quality, not its size or speed.
func trainGrid(smoke bool) gridSpec {
	g := paperSmallGrid(smoke)
	if !smoke {
		g.opts = 20
	}
	return g
}

func serveWarm(smoke bool) serveSpec {
	if smoke {
		return serveSpec{name: "serve-warm", programs: smokePrograms, archs: 3, rate: 200, limit: 50 * time.Millisecond, train: trainGrid(true)}
	}
	return serveSpec{name: "serve-warm", programs: prog.Names(), archs: 8, rate: 400, limit: 5 * time.Millisecond, train: trainGrid(false)}
}

func serveChurn(smoke bool) serveSpec {
	if smoke {
		return serveSpec{name: "serve-churn", programs: smokePrograms, archs: 6, cacheEntries: 11, rate: 100, limit: 250 * time.Millisecond, train: trainGrid(true)}
	}
	return serveSpec{name: "serve-churn", programs: prog.Names(), archs: 54, rate: 150, limit: 25 * time.Millisecond, train: trainGrid(false)}
}

// Request kinds of the traffic mix: 85 % program queries, 10 % raw
// feature vectors, 5 % invalid (half an unknown program, half a
// malformed body). An invalid request refused with its typed status is
// a success; the expected status is part of the check.
const (
	kindProgram = iota
	kindFeatures
	kindUnknown
	kindMalformed
	// kindYardstick is not part of the mix: a request to the harness's
	// own handler (yardstick below), sent beside the traffic.
	kindYardstick
)

// planned is one request of the seeded plan.
type planned struct {
	kind   int
	key    int // kindProgram: index into serveEnv.keys
	body   []byte
	status int       // expected HTTP status
	x      []float64 // kindFeatures: the vector sent
}

type serveKey struct {
	program string
	arch    uarch.Config
}

// planLen is the length of the seeded request plan; the loops cycle it.
const planLen = 8192

// serveEnv is a serving workload after set-up: a real serve.Server
// behind net/http on loopback, its model trained on the training grid,
// and the seeded request plan.
type serveEnv struct {
	spec   serveSpec
	ds     *dataset.Dataset
	gen    *genEnv
	model  string // artifact path
	srv    *serve.Server
	http   *http.Server
	served chan error
	url    string
	client *http.Client
	// yardURL and yardTables belong to the yardstick handler: its address
	// and one kernel table per connection.
	yardURL    string
	yardTables chan []uint64
	keys       []serveKey
	plan       []planned
	// tracing, when set, makes the handler middleware record a span
	// under the client span named in the request's X-Bench-Span header.
	tracing atomic.Pointer[tracer]
}

func archSpec(a uarch.Config) *serve.ArchSpec {
	return &serve.ArchSpec{
		IL1Size: a.IL1Size, IL1Assoc: a.IL1Assoc, IL1Block: a.IL1Block,
		DL1Size: a.DL1Size, DL1Assoc: a.DL1Assoc, DL1Block: a.DL1Block,
		BTBSize: a.BTBSize, BTBAssoc: a.BTBAssoc, FreqMHz: a.FreqMHz, Width: a.Width,
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of plain fields
	}
	return data
}

func setupServe(ctx context.Context, rc *runConfig, spec serveSpec) (*serveEnv, error) {
	gen, err := setupGrid(spec.train, rc.seed)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{spec: spec, gen: gen}
	if env.ds, err = dataset.GenerateWith(ctx, gen.cfg, dataset.ExploreOptions{}); err != nil {
		return nil, err
	}
	pairs, err := env.ds.TrainingPairs()
	if err != nil {
		return nil, err
	}
	fp, err := env.ds.Fingerprint()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	env.model = filepath.Join(dir, "model.gob")
	info := ml.ArtifactInfo{
		DatasetSHA256: fp, TrainConfig: gen.cfg.Describe(), Pairs: len(pairs),
		EvalTargetInsns: gen.cfg.Eval.TargetInsns, EvalMaxInsns: gen.cfg.Eval.MaxInsns, EvalSeed: gen.cfg.Eval.Seed,
	}
	if err := ml.Save(env.model, ml.Train(pairs), info); err != nil {
		return nil, err
	}
	if env.srv, err = serve.New(serve.Config{ModelPath: env.model, CacheEntries: spec.cacheEntries}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.url = "http://" + ln.Addr().String() + "/v1/predict"
	env.yardURL = "http://" + ln.Addr().String() + yardstickPath
	env.yardTables = make(chan []uint64, rc.procs) // one per connection
	for i := 0; i < rc.procs; i++ {
		env.yardTables <- make([]uint64, calibTable)
	}
	env.http = &http.Server{Handler: env.middleware(env.srv.Handler())}
	env.served = make(chan error, 1)
	go func() { env.served <- env.http.Serve(ln) }()
	env.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: rc.procs, MaxConnsPerHost: rc.procs,
	}}

	// The key set and the plan follow the seed; the server only ever
	// sees the requests.
	rng := rand.New(rand.NewSource(rc.seed))
	archs := uarch.Space{}.SampleN(rng, spec.archs)
	for _, p := range spec.programs {
		for _, a := range archs {
			env.keys = append(env.keys, serveKey{program: p, arch: a})
		}
	}
	bodies := make([][]byte, len(env.keys))
	for i, k := range env.keys {
		bodies[i] = mustJSON(serve.PredictRequest{Program: k.program, Arch: archSpec(k.arch)})
	}
	nP, nA, _ := env.ds.Dims()
	for i := 0; i < planLen; i++ {
		switch r := rng.Float64(); {
		case r < 0.85:
			k := rng.Intn(len(env.keys))
			env.plan = append(env.plan, planned{kind: kindProgram, key: k, body: bodies[k], status: http.StatusOK})
		case r < 0.95:
			x := env.ds.Features[rng.Intn(nP)][rng.Intn(nA)]
			env.plan = append(env.plan, planned{kind: kindFeatures, x: x, status: http.StatusOK,
				body: mustJSON(serve.PredictRequest{Features: x})})
		case r < 0.975:
			env.plan = append(env.plan, planned{kind: kindUnknown, status: http.StatusNotFound,
				body: mustJSON(serve.PredictRequest{Program: "no-such-program", Arch: archSpec(archs[0])})})
		default:
			env.plan = append(env.plan, planned{kind: kindMalformed, status: http.StatusBadRequest,
				body: []byte(`{"program": "qsort", "arch": `)})
		}
	}

	// Fill the feature cache before anything is timed: every key when
	// they all fit (serve-warm), as many as fit otherwise (serve-churn,
	// whose steady state is a full cache). Program-major order keeps the
	// evaluator's own trace cache hot, so the fill costs one compile per
	// program, not one per key.
	fill := len(env.keys)
	if c := spec.cacheEntries; c > 0 {
		fill = min(fill, c)
	} else {
		fill = min(fill, 1024)
	}
	for k := 0; k < fill; k++ {
		rec := env.do(&planned{kind: kindProgram, key: k, body: bodies[k], status: http.StatusOK}, 0)
		if rec.err != "" {
			env.teardown()
			return nil, fmt.Errorf("cache fill: key %d: %s", k, rec.err)
		}
	}
	return env, nil
}

// teardown shuts the HTTP server down and waits for its serve loop.
func (env *serveEnv) teardown() {
	env.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := env.http.Shutdown(ctx); err != nil {
		env.http.Close()
	}
	<-env.served
}

// middleware is the timing handler of the traced pass: a span around
// the server's own handler, child of the client's request span. With
// tracing off it costs one atomic load.
func (env *serveEnv) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == yardstickPath {
			env.serveYardstick(w, r)
			return
		}
		tr := env.tracing.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		s := tr.start(parent, "serve", "handler")
		next.ServeHTTP(w, r)
		tr.end(s)
	})
}

// The serving yardstick. The box's slow episodes (calibrate.go) reach a
// lightly loaded server differently from a busy batch job - wake-ups,
// cold caches and the loopback stack slow down more than arithmetic
// does, a cache hit has read 40 % slower while the batch kernel read
// 15 % slower - so the serving workloads carry their own yardstick: a
// request to a handler of the harness's own, which reads the body, runs
// the batch yardstick's kernel for about as long as the server spends on
// a cache hit, and answers in the server's response shape. It crosses the
// same client, connections, loopback and net/http server as the traffic
// and none of the repository's code, so only the machine can move it.
// One is sent beside every yardstickEvery requests of the open loop, and
// a loop of nothing else brackets the closed loop (inside it they would
// queue behind the server's own work and read that instead).
const (
	yardstickPath  = "/bench/yardstick"
	yardstickSteps = 90_000
	yardstickEvery = 10
	// yardOpenRefMS and yardClosedRefMS are what the yardstick request
	// reads on the quiet 2-core box: between requests of an open loop,
	// where each one wakes an idle processor, and back to back.
	yardOpenRefMS   = 0.52
	yardClosedRefMS = 0.295
)

var yardstickRequest = planned{kind: kindYardstick, body: []byte(`{"features":[]}`), status: http.StatusOK}

func (env *serveEnv) serveYardstick(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body) // a broken body shows at the client, which drops the sample
	table := <-env.yardTables
	acc := calibKernel(table, yardstickSteps)
	env.yardTables <- table
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"config_key\":\"%016x\",\"cached\":false}\n", acc)
}

// record is what the client saw of one request.
type record struct {
	plan    int
	span    int
	status  int
	key     string // config_key of a 200
	cached  bool
	latency time.Duration // from the due time (open loop) or the send (closed loop)
	lag     time.Duration // how late the generator sent it
	done    time.Duration // closed loop: when the answer came, from the loop's start
	err     string        // transport or decode trouble
}

// do sends one planned request and reads the answer.
func (env *serveEnv) do(p *planned, span int) record {
	var rec record
	url := env.url
	if p.kind == kindYardstick {
		url = env.yardURL
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(p.body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := env.client.Do(req)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	var body struct {
		ConfigKey string `json:"config_key"`
		Cached    bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		rec.err = err.Error()
		return rec
	}
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	rec.key, rec.cached = body.ConfigKey, body.Cached
	return rec
}

// spinMargin is how long before the due time the generator stops
// sleeping: an idle Go process wakes a sleeper up to a millisecond late
// (the poller's timeout is in whole milliseconds).
const spinMargin = 1200 * time.Microsecond

// waitUntil sleeps to just before due, then yields in a spin: the timer
// alone would send late, a pure spin would take a processor from the
// server under test.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > spinMargin {
		time.Sleep(d - spinMargin)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openLoop sends the plan on a fixed schedule - slot i is due at
// start + i x interval whatever happened to the ones before it - from at most
// GOMAXPROCS generator goroutines, each on its own connection. Latency
// runs from the due time, so the wait a stall imposes on later requests
// is counted; lag is how late the generator itself was. After every
// yardstickEvery requests one yardstick request takes a slot of the same
// schedule (so the wire carries rate x 1.1); their latencies (ms) come
// back beside the records.
func (env *serveEnv) openLoop(rc *runConfig, tr *tracer, d time.Duration, offset int) (recs []record, yard []float64) {
	total := int(d.Seconds() * env.spec.rate)
	slots := total + total/yardstickEvery
	interval := d / time.Duration(slots)
	all := make([]record, slots)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for g := 0; g < rc.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < slots; i = int(next.Add(1)) - 1 {
				p, pi := &yardstickRequest, -1
				if i%(yardstickEvery+1) != yardstickEvery {
					pi = (offset + i - i/(yardstickEvery+1)) % planLen
					p = &env.plan[pi]
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				sent := time.Now()
				span := tr.start(0, "client", "request")
				rec := env.do(p, span)
				tr.end(span)
				rec.plan, rec.span = pi, span
				rec.latency, rec.lag = time.Since(due), sent.Sub(due)
				all[i] = rec
			}
		}()
	}
	wg.Wait()
	for i := range all {
		if all[i].plan >= 0 {
			recs = append(recs, all[i])
		} else if all[i].err == "" && all[i].status == http.StatusOK {
			yard = append(yard, ms(all[i].latency))
		}
	}
	return recs, yard
}

// yardstickLoop is a closed loop of nothing but yardstick requests:
// GOMAXPROCS clients back to back for d. Run before and after the closed
// loop, it reads what the machine charges a busy server's request.
func (env *serveEnv) yardstickLoop(rc *runConfig, d time.Duration) []float64 {
	var mu sync.Mutex
	var yard []float64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < rc.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for time.Since(start) < d {
				t0 := time.Now()
				if rec := env.do(&yardstickRequest, 0); rec.err == "" && rec.status == http.StatusOK {
					mine = append(mine, ms(time.Since(t0)))
				}
			}
			mu.Lock()
			yard = append(yard, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return yard
}

// closedLoop runs GOMAXPROCS clients for d, each sending its next
// request when the previous one is answered.
func (env *serveEnv) closedLoop(rc *runConfig, d time.Duration, offset int) []record {
	var next atomic.Int64
	var mu sync.Mutex
	var recs []record
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < rc.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Since(start) < d {
				pi := (offset + int(next.Add(1)) - 1) % planLen
				t0 := time.Now()
				rec := env.do(&env.plan[pi], 0)
				rec.plan, rec.latency, rec.done = pi, time.Since(t0), time.Since(start)
				mine = append(mine, rec)
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs
}

// throughputWindow is about how much of the closed loop one throughput
// sample covers.
const throughputWindow = 500 * time.Millisecond

// windowRates is the closed loop's throughput in correct answers per
// second, one sample per window: the loop's time d cut into equal windows
// of about throughputWindow. The median of these, not the loop's total,
// is ops_per_s - a stall of the box, or a run of the few programs that
// cost ten times the rest, sinks one window and not the reading.
func windowRates(recs []record, bad []bool, d time.Duration) []float64 {
	rates := make([]float64, max(int(d/throughputWindow), 1))
	window := d / time.Duration(len(rates))
	for i := range recs {
		if w := int(recs[i].done / window); w < len(rates) && !bad[i] {
			rates[w] += 1 / window.Seconds()
		}
	}
	return rates
}

// reference answers the plan independently of the server: its own
// evaluator profiles each requested (program, architecture) at -O3, the
// artifact is loaded a second time, and the expected answer is
// Mixture(x).Mode().Key() on that vector.
type reference struct {
	env   *serveEnv
	model *ml.Model
	ev    *dataset.Evaluator
	keys  map[int]string
}

func newReference(env *serveEnv) (*reference, error) {
	model, _, err := ml.Load(env.model)
	if err != nil {
		return nil, err
	}
	return &reference{env: env, model: model, ev: dataset.NewEvaluator(env.gen.cfg.Eval), keys: map[int]string{}}, nil
}

func (r *reference) modeKey(x []float64) string {
	mix := r.model.Mixture(x)
	cfg := mix.Mode()
	return cfg.Key()
}

// resolve profiles every key the records touched, program-major.
func (r *reference) resolve(recs []record) error {
	var need []int
	for i := range recs {
		p := &r.env.plan[recs[i].plan]
		if _, ok := r.keys[p.key]; p.kind == kindProgram && !ok {
			r.keys[p.key] = ""
			need = append(need, p.key)
		}
	}
	sort.Ints(need)
	o3 := opt.O3()
	for _, k := range need {
		key := r.env.keys[k]
		res, err := r.ev.Run(key.program, &o3, key.arch)
		if err != nil {
			return err
		}
		r.keys[k] = r.modeKey(features.Vector(key.arch, &res))
	}
	return nil
}

// judge reports whether the record is the right answer to its request,
// and why not when it is not.
func (r *reference) judge(rec *record) string {
	p := &r.env.plan[rec.plan]
	switch {
	case rec.err != "":
		return "transport: " + rec.err
	case rec.status != p.status:
		return fmt.Sprintf("status %d, want %d", rec.status, p.status)
	case p.kind == kindProgram && rec.key != r.keys[p.key]:
		return fmt.Sprintf("config_key %s, reference says %s", rec.key, r.keys[p.key])
	case p.kind == kindFeatures && rec.key != r.modeKey(p.x):
		return fmt.Sprintf("config_key %s, reference says %s", rec.key, r.modeKey(p.x))
	}
	return ""
}

// judgeAll counts wrong answers, keeping the first few reasons.
func (r *reference) judgeAll(ck *checker, recs []record) (bad []bool, failed int, err error) {
	if err := r.resolve(recs); err != nil {
		return nil, 0, err
	}
	bad = make([]bool, len(recs))
	for i := range recs {
		if why := r.judge(&recs[i]); why != "" {
			bad[i] = true
			if failed++; failed <= 3 {
				ck.failf("request %d (plan %d): %s", i, recs[i].plan, why)
			}
		}
	}
	return bad, failed, nil
}

// phaseSplit divides the measuring time: 60 % to the open loop, whose
// latency percentiles need every sample they can get (150 req/s is few),
// 4 % to the yardstick loop on either side of the closed loop, and the
// rest, 32 %, to the closed loop.
func phaseSplit(rc *runConfig) (open, closed, yard time.Duration) {
	total := time.Duration(rc.seconds * float64(time.Second))
	open = total * 6 / 10
	yard = total / 25
	return open, total - open - 2*yard, yard
}

func latenciesMS(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = ms(recs[i].latency)
	}
	return out
}

// runServe is the untraced pass of a serving workload: the open loop
// for the latency metrics, then the closed loop for throughput.
func runServe(ctx context.Context, rc *runConfig, spec serveSpec) (*result, error) {
	// The set-up is timed as read: after its one-request-at-a-time cache
	// fill the batch yardstick reads twice its value on most runs (the
	// idle second processor comes back slowly), which would halve some
	// readings and not others.
	env, setup, err := timeSetup(nil,
		func() (*serveEnv, error) { return setupServe(ctx, rc, spec) },
		(*serveEnv).teardown)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	res := newResult()
	ck := &res.checker
	openFor, closedFor, yardFor := phaseSplit(rc)

	open, yardOpen := env.openLoop(rc, nil, openFor, 0)
	yardClosed := env.yardstickLoop(rc, yardFor)
	closed := env.closedLoop(rc, closedFor, len(open))
	yardClosed = append(yardClosed, env.yardstickLoop(rc, yardFor)...)
	if len(yardOpen) == 0 || len(yardClosed) == 0 {
		return nil, fmt.Errorf("%s: no yardstick request was answered", spec.name)
	}
	ref, err := newReference(env)
	if err != nil {
		return nil, err
	}
	openBad, openFailed, err := ref.judgeAll(ck, open)
	if err != nil {
		return nil, err
	}
	closedBad, closedFailed, err := ref.judgeAll(ck, closed)
	if err != nil {
		return nil, err
	}
	within := 0
	for i := range open {
		if !openBad[i] && open[i].latency <= spec.limit {
			within++
		}
	}
	// Times are in reference milliseconds, scaled by the yardstick of
	// their own loop; the limit is a wall-clock promise and is not.
	openScale := yardOpenRefMS / median(yardOpen)
	closedScale := yardClosedRefMS / median(yardClosed)
	raw := sorted(latenciesMS(open))
	lat := make([]float64, len(raw))
	for i := range raw {
		lat[i] = raw[i] * openScale
	}
	rps := median(windowRates(closed, closedBad, closedFor))
	m := res.Metrics
	m.setMedian("setup_s", setup)
	m.setLatency(lat)
	m.set("within_limit", float64(within)/float64(len(open)))
	m.set("ops_per_s", rps/closedScale)
	res.Detail["open_requests"] = float64(len(open))
	res.Detail["closed_requests"] = float64(len(closed))
	res.Detail["raw_latency_p50_ms"] = quantile(raw, 0.5)
	res.Detail["raw_latency_tail_ms"] = tailOf(raw)
	res.Detail["raw_ops_per_s"] = rps
	res.Detail["yardstick_open_ms"] = median(yardOpen)
	res.Detail["yardstick_closed_ms"] = median(yardClosed)
	for _, q := range []float64{0.75, 0.95, 0.99} {
		res.Detail[fmt.Sprintf("raw_p%g_ms", q*100)] = quantile(raw, q)
	}
	lag := make([]float64, len(open))
	for i := range open {
		lag[i] = ms(open[i].lag)
	}
	sort.Float64s(lag)
	res.Detail["generator_lag_p99_ms"] = quantile(lag, 0.99)
	res.Attempted = len(open) + len(closed)
	res.Failed = openFailed + closedFailed
	return res, nil
}

// classTimes splits the handler spans of an open loop by what the
// request was and whether the feature cache answered it.
type classTimes struct {
	warm, cold, feats, invalid, overhead []float64
}

// tracedServe is the traced pass of a serving workload: the open loop
// twice over the same plan, with the handler middleware recording and
// without (the difference is the tracing overhead), direct spans around
// Model.Mixture and Evaluator.Run on the same inputs, then the probes
// of the layers the workload leans on.
func tracedServe(ctx context.Context, rc *runConfig, tr *tracer, spec serveSpec) (*result, error) {
	env, err := setupServe(ctx, rc, spec)
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	res := newResult()
	ck := &res.checker
	m := res.Metrics
	half := time.Duration(rc.seconds * float64(time.Second) / 2)

	plain, _ := env.openLoop(rc, nil, half, 0)
	before := env.srv.Stats()
	env.tracing.Store(tr)
	traced, _ := env.openLoop(rc, tr, half, len(plain))
	env.tracing.Store(nil)
	after := env.srv.Stats()

	ref, err := newReference(env)
	if err != nil {
		return nil, err
	}
	_, failedPlain, err := ref.judgeAll(ck, plain)
	if err != nil {
		return nil, err
	}
	_, failedTraced, err := ref.judgeAll(ck, traced)
	if err != nil {
		return nil, err
	}

	handler := map[int]float64{}  // client span id -> handler span ns
	clientNS := map[int]float64{} // client span id -> client span ns
	tr.each(func(s span) {
		switch s.Name {
		case "handler":
			handler[s.Parent] = float64(s.EndNS - s.StartNS)
		case "request":
			clientNS[s.ID] = float64(s.EndNS - s.StartNS)
		}
	})
	var ct classTimes
	hits, programOK, shed := 0, 0, 0
	var lag []float64
	for i := range traced {
		rec := &traced[i]
		lag = append(lag, ms(rec.lag))
		if rec.status == http.StatusTooManyRequests {
			shed++
		}
		h, ok := handler[rec.span]
		if !ok {
			continue
		}
		ct.overhead = append(ct.overhead, (clientNS[rec.span]-h)/1e3)
		switch p := &env.plan[rec.plan]; {
		case p.kind == kindFeatures:
			ct.feats = append(ct.feats, h/1e3)
		case p.kind != kindProgram:
			ct.invalid = append(ct.invalid, h/1e3)
		case rec.status == http.StatusOK && rec.cached:
			hits++
			programOK++
			ct.warm = append(ct.warm, h/1e3)
		case rec.status == http.StatusOK:
			programOK++
			ct.cold = append(ct.cold, h/1e6)
		}
	}
	m.setMedian("serve.handler_warm_us", ct.warm)
	m.setMedian("serve.handler_features_us", ct.feats)
	m.setMedian("serve.handler_cold_ms", ct.cold)
	m.setMedian("serve.handler_invalid_us", ct.invalid)
	m.setMedian("serve.http_overhead_us", ct.overhead)
	m.set("serve.cache_hit_ratio", float64(hits)/float64(max(programOK, 1)))
	m.set("serve.shed_ratio", float64(shed)/float64(len(traced)))
	m.set("serve.profile_sims", float64(after.Simulations-before.Simulations))
	lat := sorted(latenciesMS(plain))
	m.set("serve.p95_ms", quantile(lat, 0.95))
	m.set("serve.p99_ms", quantile(lat, 0.99))
	m.set("serve.generator_lag_p99_ms", quantile(sorted(lag), 0.99))
	m.set("serve.trace_overhead_ratio", median(latenciesMS(traced))/median(lat))

	// The model query and the profiling run, called directly on inputs
	// the plan used: what the handler's time is made of.
	ev := dataset.NewEvaluator(env.gen.cfg.Eval)
	o3 := opt.O3()
	for i := 0; i < len(spec.programs); i++ {
		key := env.keys[i*spec.archs]
		root := tr.start(0, "bench", "direct")
		s := tr.start(root, "dataset", "Evaluator.Run")
		r, err := ev.Run(key.program, &o3, key.arch)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		x := features.Vector(key.arch, &r)
		s = tr.start(root, "ml", "Model.Mixture")
		ref.model.Mixture(x)
		tr.end(s)
		tr.end(root)
	}

	if err := probeModel(m, env.ds, rc); err != nil {
		return nil, err
	}
	if spec.name == "serve-churn" {
		// A miss pays a compile, a trace generation and a simulate.
		probeCompile(m, env.gen, rc)
		probeReplay(m, env.gen, rc, false)
	}
	res.Attempted = len(plain) + len(traced)
	res.Failed = failedPlain + failedTraced
	return res, nil
}
