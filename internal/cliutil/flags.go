package cliutil

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/pcerr"
	"portcc/internal/sched"
)

// Flags is the option set shared by the portcc command-line tools:
// sampling scale, worker-pool size, model-artifact path, listen/serve
// address, and the shard list plus reconnect policy for distributed
// exploration. Each tool registers the subset it uses and calls Init
// for the common prologue.
type Flags struct {
	Scale        string
	Workers      int
	Model        string
	Addr         string
	Store        string
	StoreBudget  int64
	StoreRemote  string
	shards       string
	shardRetries int
	shardBackoff time.Duration
	cpuProfile   string
	memProfile   string
}

// RegisterScale installs the shared -scale flag.
func (f *Flags) RegisterScale(def string) {
	flag.StringVar(&f.Scale, "scale", def, "sampling scale: tiny, small, medium or paper")
}

// RegisterWorkers installs the shared -workers flag.
func (f *Flags) RegisterWorkers() {
	flag.IntVar(&f.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
}

// RegisterProfile installs the shared -cpuprofile and -memprofile flags;
// StartProfiles acts on them.
func (f *Flags) RegisterProfile() {
	flag.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file on exit")
}

// StartProfiles starts the profiles the -cpuprofile/-memprofile flags
// request and returns the function that stops the CPU profile and
// snapshots the heap, to run once at tool exit (it is safe to call with
// neither flag set, and the returned stop is never nil):
//
//	stop, err := cf.StartProfiles()
//	if err != nil { log.Fatal(err) }
//	defer stop()
//
// Note defer runs stop after a normal return but not after log.Fatal;
// tools whose failure paths matter for profiling should stop explicitly
// before exiting.
func (f *Flags) StartProfiles() (stop func(), err error) {
	if f.cpuProfile != "" {
		cf, err := os.Create(f.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
	}
	memPath := f.memProfile
	return func() {
		if f.cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if memPath == "" {
			return
		}
		mf, err := os.Create(memPath)
		if err != nil {
			log.Printf("-memprofile: %v", err)
			return
		}
		defer mf.Close()
		runtime.GC() // materialise the final live set
		if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
			log.Printf("-memprofile: %v", err)
		}
	}, nil
}

// RegisterStore installs the shared -store and -store-budget flags: the
// directory of the persistent content-addressed result store replays
// are answered from and committed to, and its LRU byte budget. A run
// killed mid-flight resumes from the store byte-identically; corrupt
// entries are quarantined and recomputed; a full or broken disk only
// costs cache hits, never correctness.
func (f *Flags) RegisterStore() {
	flag.StringVar(&f.Store, "store", "",
		"persistent result-store directory for resumable generation (empty = none)")
	flag.Int64Var(&f.StoreBudget, "store-budget", 0,
		"result-store size bound in bytes; the least recently used entries, by file mtime, are evicted (0 = unbounded)")
	flag.StringVar(&f.StoreRemote, "store-remote", "",
		"shared store-service address (host:port of portccsd); combined with -store as a local-then-remote tier, alone as a fleet-only cache")
}

// OpenStore opens the result store the store flags describe - the
// local directory, the shared service, or both tiered - returning
// (nil, nil) when neither flag is set. A positive -store-budget bounds
// only a local directory, so without -store it is refused with
// pcerr.ErrInvalidConfig. The caller owns Close.
func (f *Flags) OpenStore() (*dataset.ResultStore, error) {
	if f.StoreBudget > 0 && f.Store == "" {
		return nil, fmt.Errorf("cliutil: %w: -store-budget %d without -store bounds nothing",
			pcerr.ErrInvalidConfig, f.StoreBudget)
	}
	if f.Store == "" && f.StoreRemote == "" {
		return nil, nil
	}
	rs, err := dataset.OpenResultStoreRemote(f.Store, f.StoreBudget, f.StoreRemote)
	if err != nil {
		return nil, fmt.Errorf("cliutil: -store: %w", err)
	}
	return rs, nil
}

// StoreTiers names the tiers OpenStore composed from the store flags,
// for a long-running tool's start-up log line.
func (f *Flags) StoreTiers() string {
	switch {
	case f.Store != "" && f.StoreRemote != "":
		return fmt.Sprintf("result store at %s (budget %d bytes), tiered behind service %s", f.Store, f.StoreBudget, f.StoreRemote)
	case f.StoreRemote != "":
		return fmt.Sprintf("result store: fleet service %s (no local tier)", f.StoreRemote)
	}
	return fmt.Sprintf("result store at %s (budget %d bytes)", f.Store, f.StoreBudget)
}

// StoreStats formats a one-line summary of a store's ledger for tool
// output; empty when no store is attached. A tiered store's remote
// traffic gets its own clause so a fleet run shows at a glance how
// much work the service saved (and how often it was unreachable). The
// leading counters cover both entry kinds; the closing index clause
// singles out the compile-index lookups, so a resumed run that compiled
// nothing reads "0 misses" twice.
func StoreStats(rs *dataset.ResultStore) string {
	if rs == nil {
		return ""
	}
	s := rs.Stats()
	line := fmt.Sprintf("store: %d hits, %d misses, %d corrupt quarantined, %d put errors (%d entries, %d bytes, %d evicted)",
		s.Hits, s.Misses, s.Corrupt, s.PutErrors, s.Entries, s.Bytes, s.Evictions)
	if s.RemoteHits != 0 || s.RemoteMisses != 0 || s.RemoteErrors != 0 || s.RemotePuts != 0 || s.RemotePutErrors != 0 {
		line += fmt.Sprintf("; remote: %d hits, %d misses, %d degraded, %d puts, %d lost",
			s.RemoteHits, s.RemoteMisses, s.RemoteErrors, s.RemotePuts, s.RemotePutErrors)
	}
	ih, im, iq := rs.IndexStats()
	return line + fmt.Sprintf("; index: %d block hits, %d misses, %d quarantined", ih, im, iq)
}

// RegisterModel installs the shared -model flag: the path of a trained
// model artifact written by cmd/trainer -model-out.
func (f *Flags) RegisterModel(usage string) {
	if usage == "" {
		usage = "trained model artifact (from trainer -model-out)"
	}
	flag.StringVar(&f.Model, "model", "", usage)
}

// RegisterAddr installs the shared -addr flag for serving tools.
func (f *Flags) RegisterAddr(def string) {
	flag.StringVar(&f.Addr, "addr", def, "listen address (host:port)")
}

// RegisterShards installs the shared -shards flag.
func (f *Flags) RegisterShards() {
	flag.StringVar(&f.shards, "shards", "",
		"comma-separated portccd worker addresses (host:port,...) for distributed exploration")
}

// RegisterShardRetry installs the shared -shard-retries and
// -shard-backoff flags alongside -shards.
func (f *Flags) RegisterShardRetry() {
	flag.IntVar(&f.shardRetries, "shard-retries", 0,
		"consecutive fruitless redials before a dead shard is abandoned (0 = default)")
	flag.DurationVar(&f.shardBackoff, "shard-backoff", 0,
		"initial shard redial backoff, doubling per attempt (0 = default)")
}

// ShardRetry returns the reconnect policy the retry flags describe;
// unset flags leave the scheduler defaults in force.
func (f *Flags) ShardRetry() sched.RetryPolicy {
	return sched.RetryPolicy{MaxAttempts: f.shardRetries, BaseBackoff: f.shardBackoff}
}

// Shards returns the parsed -shards address list, empty entries dropped
// (so trailing commas and unset flags both mean "run locally").
func (f *Flags) Shards() []string {
	var addrs []string
	for _, a := range strings.Split(f.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
