// Command portccsd is the shared result-store service of a portccd
// fleet: it owns one content-addressed store directory and serves it
// over the wire protocol, so every shard's replay cache hits answer
// from one place and every shard's fresh work is committed once for
// all of them. Point workers (and coordinators) at it with
// -store-remote; their stores become local-then-remote tiers.
//
// Usage:
//
//	portccsd [-listen :7087] [-store dir] [-store-budget bytes]
//	         [-heartbeat 1s] [-metrics host:port]
//
// The wire handshake carries the protocol and dataset schema versions,
// so shards built against a different schema are refused typed. Quiet
// connections carry heartbeats; clients that miss a few treat the
// service as dead and degrade to their local tiers, redialling with
// backoff - killing and restarting this process costs the fleet cache
// hits while it is down, never correctness or a stall.
//
// With -metrics the daemon serves a Prometheus text endpoint at
// /metrics (portccsd_* counters: connections, gets, hits, misses,
// puts, errors, plus the resident set), so fleet dashboards - and the
// CI smoke job - can prove the cache is actually shared.
//
// The first SIGTERM (or SIGINT) drains gracefully: stop accepting,
// answer in-flight requests, exit. A second signal hard-stops.
//
// -store-budget is what keeps a long-lived service bounded: every
// core.Version or dataset.FormatVersion bump leaves the old keys
// unreachable, and the least recently used entries - by entry-file
// mtime, which each Put and hit sets - are evicted to make room.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"portcc/internal/cliutil"
	"portcc/internal/dataset"
	"portcc/internal/serve/metrics"
	"portcc/internal/store"
	"portcc/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("portccsd: ")
	listen := flag.String("listen", ":7087", "address to serve store clients on")
	storeDir := flag.String("store", "", "result-store directory to serve (required)")
	storeBudget := flag.Int64("store-budget", 0, "store size bound in bytes; the least recently used entries, by file mtime, are evicted (0 = unbounded)")
	heartbeat := flag.Duration("heartbeat", time.Second, "liveness heartbeat period on quiet connections")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics on this address (empty = off)")
	flag.Parse()

	if *storeDir == "" {
		log.Fatal("-store is required: the directory this service owns and serves")
	}
	st, err := store.Open(store.Options{Dir: *storeDir, Budget: *storeBudget})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving result store %s on %s (protocol v%d, dataset format v%d, budget %d bytes)",
		*storeDir, ln.Addr(), wire.ProtoVersion, dataset.FormatVersion, *storeBudget)

	ctx, drain := cliutil.DrainSignals("answering in-flight requests")
	sv := store.NewService(st, store.ServiceConfig{
		Format:    dataset.FormatVersion,
		Heartbeat: *heartbeat,
		Drain:     drain,
		Logf:      log.Printf,
	})

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, sv, st)
	}

	if err := sv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	ss := sv.Stats()
	log.Printf("served %d conns: %d gets (%d hits, %d misses, %d degraded), %d puts (%d refused)",
		ss.Conns, ss.Gets, ss.Hits, ss.Misses, ss.GetErrors, ss.Puts, ss.PutErrors)
}

// serveMetrics exposes the service and store ledgers as Prometheus
// text at /metrics, reusing the dependency-free registry the
// prediction server's surface is built on.
func serveMetrics(addr string, sv *store.Service, st *store.Store) {
	reg := metrics.NewRegistry()
	svc := func(f func(store.ServiceStats) float64) func() float64 {
		return func() float64 { return f(sv.Stats()) }
	}
	stf := func(f func(store.Stats) float64) func() float64 {
		return func() float64 { return f(st.Stats()) }
	}
	reg.CounterFunc("portccsd_conns_total",
		"Client connections that passed the handshake.", svc(func(s store.ServiceStats) float64 { return float64(s.Conns) }))
	reg.CounterFunc("portccsd_gets_total",
		"StoreGet requests served.", svc(func(s store.ServiceStats) float64 { return float64(s.Gets) }))
	reg.CounterFunc("portccsd_hits_total",
		"StoreGet requests answered with an entry.", svc(func(s store.ServiceStats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("portccsd_misses_total",
		"StoreGet requests answered with a miss.", svc(func(s store.ServiceStats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("portccsd_get_errors_total",
		"StoreGet requests degraded by corrupt or unreadable entries.", svc(func(s store.ServiceStats) float64 { return float64(s.GetErrors) }))
	reg.CounterFunc("portccsd_puts_total",
		"StorePut requests committed.", svc(func(s store.ServiceStats) float64 { return float64(s.Puts) }))
	reg.CounterFunc("portccsd_put_errors_total",
		"StorePut requests the disk refused.", svc(func(s store.ServiceStats) float64 { return float64(s.PutErrors) }))
	reg.GaugeFunc("portccsd_store_entries",
		"Entries resident in the served store.", stf(func(s store.Stats) float64 { return float64(s.Entries) }))
	reg.GaugeFunc("portccsd_store_bytes",
		"Bytes resident in the served store.", stf(func(s store.Stats) float64 { return float64(s.Bytes) }))
	reg.CounterFunc("portccsd_store_evictions_total",
		"Budget-driven evictions from the served store.", stf(func(s store.Stats) float64 { return float64(s.Evictions) }))

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		body, ct := reg.Expose()
		w.Header().Set("Content-Type", ct)
		fmt.Fprint(w, body)
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("-metrics: %v", err)
	}
}
