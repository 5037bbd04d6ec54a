// Command portccd is the exploration worker daemon of distributed
// dataset generation: it serves (program, setting) work cells - one
// binary replayed over the job's whole architecture sample - shipped by
// a sharded coordinator (trainer -shards, expgen -shards, or any Session
// with WithShards), executing them on this machine's worker pool and
// streaming the results back as bounded wire frames over TCP. Each
// slot's batched replays sweep over the cores the pool cannot occupy,
// a share derived from the grid's shape (internal/tune); GOMAXPROCS is
// the one budget.
//
// Usage:
//
//	portccd [-listen :7077] [-workers N] [-heartbeat 1s]
//	        [-store dir] [-store-budget bytes] [-store-remote host:port]
//	        [-cpuprofile file] [-memprofile file]
//
// With -store the daemon keeps a persistent content-addressed result
// store shared by every run it serves: replays whose inputs match a
// stored entry are answered from disk, so a daemon restarted after a
// crash (kill -9 included) serves the resubmitted grid mostly from
// cache. With -store-remote the store is tiered behind the shared
// store service at that address (a running portccsd): lookups check
// the local directory first, then the service, and fresh replays are
// committed to both, so one shard's work answers the whole fleet's.
// Either flag works alone - -store-remote without -store leans on the
// fleet cache only. Result streams are bit-identical with or without
// any store tier and under every service failure (dead process, torn
// frames, slow replies all degrade to local misses, bounded in time);
// corrupt entries are quarantined and recomputed.
//
// The wire handshake carries the protocol and dataset schema versions,
// so a coordinator built against a different schema is refused with a
// typed error instead of decode noise, and a peer whose bytes are not
// legal frames (over the frame cap, or malformed) is dropped with one. Quiet connections carry
// heartbeats; a coordinator that misses a few treats this shard as dead,
// requeues its cells elsewhere, and redials this address with backoff -
// a restarted daemon rejoins the same run and picks up fresh work.
//
// The daemon is built to survive its failure modes: a panic inside one
// work cell is recovered and shipped back as a typed cell error (the
// daemon and its other connections keep serving), transient accept
// failures such as fd exhaustion are retried with backoff instead of
// killing the process, and protocol-violating coordinators get their
// connection dropped without disturbing well-behaved ones.
//
// The first SIGTERM (or SIGINT) drains gracefully: the daemon stops
// accepting connections, finishes the assignments already in flight
// (their results still stream back), and exits; coordinators requeue
// everything else onto surviving shards. A second signal hard-stops:
// in-flight cells are abandoned and the exit is forced after a short
// grace (coordinators detect the drop and requeue).
//
// A fleet's compiles, trace generations and replays all run here, so
// this is the binary to profile: -cpuprofile and -memprofile cover the
// daemon's life and are written when it drains.
package main

import (
	"flag"
	"log"
	"net"
	"time"

	"portcc/internal/cliutil"
	"portcc/internal/dataset"
	"portcc/internal/sched"
	"portcc/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("portccd: ")
	var cf cliutil.Flags
	cf.RegisterWorkers()
	cf.RegisterStore()
	cf.RegisterProfile()
	listen := flag.String("listen", ":7077", "address to serve coordinator connections on")
	heartbeat := flag.Duration("heartbeat", time.Second, "liveness heartbeat period on quiet connections")
	flag.Parse()
	stopProfiles, err := cf.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	// One store across every run the daemon serves.
	rstore, err := cf.OpenStore()
	if err != nil {
		log.Fatal(err)
	}
	if rstore != nil {
		defer rstore.Close()
		defer func() { log.Print(cliutil.StoreStats(rstore)) }()
		log.Print(cf.StoreTiers())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving exploration cells on %s (protocol v%d, dataset format v%d)",
		ln.Addr(), wire.ProtoVersion, dataset.FormatVersion)

	ctx, drain := cliutil.DrainSignals("finishing in-flight assignments")
	cfg := dataset.ServeConfigStore(cf.Workers, 0, *heartbeat, rstore)
	cfg.Drain = drain
	cfg.Logf = log.Printf
	if err := sched.Serve(ctx, ln, cfg); err != nil {
		log.Fatal(err)
	}
}
