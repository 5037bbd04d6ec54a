// Command portccs is the prediction server: an always-on HTTP service
// that answers optimisation queries from a pre-trained model artifact
// (trainer -model-out) - the paper's Figure 2 deployment path exposed
// to a fleet instead of one CLI invocation.
//
// Usage:
//
//	portccs -model model.bin [-addr :7078] [-cache N]
//	        [-max-inflight N] [-max-queue N] [-reload dur]
//
// Endpoints:
//
//	POST /v1/predict  {"program": "...", "arch": {...}} or
//	                  {"features": [19 floats]} -> predicted-best
//	                  setting plus the per-dimension mixture
//	GET  /healthz     model and dataset fingerprints, pair count
//	GET  /metrics     Prometheus text-format counters and histograms
//
// Profiling parameters come from the artifact, so served feature
// vectors match the model's training distribution. A program's first
// query compiles it at -O3 and replays its trace once over a sample
// covering the whole architecture space (about 10 ms); every later
// architecture of it is a closed-form lookup of that profile. An LRU
// cache of -cache (program, uarch) entries keeps each pair's encoded
// answer: a repeat query writes the stored answer, and after a model
// reload recomputes it from a profile lookup. Nothing is persisted: a
// restarted server re-warms each program with its one covering replay.
// When the artifact file changes on disk it is hot-reloaded
// (content-fingerprint checked); excess load beyond the admission
// bounds is shed with HTTP 429 + Retry-After.
//
// The first SIGTERM (or SIGINT) drains gracefully: the listener stops
// accepting, in-flight predictions finish and their responses are
// written, then the process exits. A second signal hard-stops.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"time"

	"portcc/internal/cliutil"
	"portcc/internal/serve"
)

func main() {
	var cf cliutil.Flags
	cf.RegisterModel("model artifact to serve (required; from trainer -model-out)")
	cf.RegisterAddr(":7078")
	cacheEntries := flag.Int("cache", 0, "answer-cache capacity in (program, uarch) entries (0 = default 1024)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing predictions (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max predictions queued for a slot before shedding 429s (0 = 4x max-inflight)")
	reload := flag.Duration("reload", time.Second, "artifact staleness check interval")
	ctx, stop := cliutil.Init("portccs")
	defer stop()

	if cf.Model == "" {
		log.Fatal("-model is required (train one with: trainer -scale tiny -model-out model.bin)")
	}
	srv, err := serve.New(serve.Config{
		ModelPath:    cf.Model,
		CacheEntries: *cacheEntries,
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		ReloadEvery:  *reload,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: cf.Addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving predictions on %s from %s", cf.Addr, cf.Model)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// First signal: drain. cliutil.SignalContext has already restored the
	// default handler, so a second SIGTERM/SIGINT hard-kills instead of
	// being swallowed while in-flight predictions finish.
	log.Print("draining: finishing in-flight predictions (signal again to hard-stop)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	log.Print("drained")
}
