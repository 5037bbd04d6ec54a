package dataset

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"portcc/internal/faultnet"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/sched"
	"portcc/internal/wire"
)

// shardConfig is the grid the distributed tests run: small enough for
// sub-second shard runs, big enough (14 cells against the remote
// executor's chunk of 8) that two shards both hold work mid-run.
func shardConfig() GenConfig {
	return GenConfig{
		Programs: []string{"crc", "bitcnts"},
		NumArchs: 2,
		NumOpts:  6,
		Seed:     21,
		Eval:     EvalConfig{TargetInsns: 4000, Seed: 1},
	}
}

// startShard runs an in-process exploration worker on a loopback
// listener, exactly as cmd/portccd would. kill hard-stops it (listener
// closed, connections killed) and waits for the serve loop to exit;
// it is idempotent and registered as cleanup.
func startShard(t *testing.T, cfg sched.ServeConfig) (addr string, kill func()) {
	return startShardWith(t, cfg, nil)
}

// startShardWith is startShard with a fault plan applied to the shard's
// accepted connections (nil = fault-free).
func startShardWith(t *testing.T, cfg sched.ServeConfig, plan faultnet.Plan) (addr string, kill func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		var serveLn net.Listener = ln
		if plan != nil {
			serveLn = faultnet.Wrap(ln, plan)
		}
		sched.Serve(ctx, serveLn, cfg)
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(kill)
	return ln.Addr().String(), kill
}

// fingerprint is the dataset's Fingerprint: the sha256 of the bytes
// Save writes, for bit-for-bit comparison.
func fingerprint(t *testing.T, ds *Dataset) string {
	t.Helper()
	fp, err := ds.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestShardedGenerateMatchesLocal is the acceptance property: a
// coordinator merging result streams from two TCP worker shards must
// fold into a dataset bit-identical to the single-process run.
func TestShardedGenerateMatchesLocal(t *testing.T) {
	cfg := shardConfig()
	local, err := GenerateWith(context.Background(), cfg, ExploreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	a2, _ := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	sharded, err := GenerateWith(context.Background(), cfg, ExploreOptions{Shards: []string{a1, a2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, sharded) {
		t.Fatal("sharded dataset differs from local run")
	}
	if fingerprint(t, local) != fingerprint(t, sharded) {
		t.Fatal("sharded dataset not bit-identical to local run")
	}
}

// TestShardDeathRequeuesOntoSurvivor kills one of two shards as soon as
// the first cell completes: its unfinished cells must requeue onto the
// survivor, the run must finish without error, and the merged dataset
// must still be bit-identical to a local run.
func TestShardDeathRequeuesOntoSurvivor(t *testing.T) {
	cfg := shardConfig()
	local, err := GenerateWith(context.Background(), cfg, ExploreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	a2, kill2 := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	var once sync.Once
	sharded, err := GenerateWith(context.Background(), cfg, ExploreOptions{
		Shards: []string{a1, a2},
		Progress: func(done, total int) {
			// Both shards hold an assignment here (14 cells, chunk 8):
			// the kill loses in-flight work, not idle capacity.
			once.Do(kill2)
		},
	})
	if err != nil {
		t.Fatalf("generation with a mid-run shard death: %v", err)
	}
	if fingerprint(t, local) != fingerprint(t, sharded) {
		t.Fatal("dataset after shard death not bit-identical to local run")
	}
}

// TestShardedGenerateBitIdenticalUnderFaults is the self-healing
// acceptance property: both shards' first connections are cut mid-run by
// an injected fault, the coordinator redials them with backoff, the
// stranded cells requeue, and the merged dataset is still bit-identical
// to the single-process run - the fault schedule leaves no trace in the
// output.
func TestShardedGenerateBitIdenticalUnderFaults(t *testing.T) {
	cfg := shardConfig()
	local, err := GenerateWith(context.Background(), cfg, ExploreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0 on each shard survives the handshake and job exchange,
	// then dies partway through streaming results; every redial is clean.
	cut := func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{CloseAfterReads: 8}
		}
		return faultnet.Fault{}
	}
	a1, _ := startShardWith(t, ServeConfigStore(2, 0, 50*time.Millisecond, nil), cut)
	a2, _ := startShardWith(t, ServeConfigStore(2, 0, 50*time.Millisecond, nil), cut)
	sharded, err := GenerateWith(context.Background(), cfg, ExploreOptions{
		Shards: []string{a1, a2},
		Retry:  sched.RetryPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 7},
	})
	if err != nil {
		t.Fatalf("generation with faulted shard connections: %v", err)
	}
	if fingerprint(t, local) != fingerprint(t, sharded) {
		t.Fatal("dataset after connection faults not bit-identical to local run")
	}
}

// TestShardFormatMismatchIsTyped: a worker built against another dataset
// schema version is refused during the handshake; with no other shards
// to requeue onto, the run surfaces both sentinels.
func TestShardFormatMismatchIsTyped(t *testing.T) {
	scfg := ServeConfigStore(1, 0, 100*time.Millisecond, nil)
	scfg.Format = FormatVersion + 1
	addr, _ := startShard(t, scfg)
	var terminal error
	for _, err := range Explore(context.Background(), mustRequest(t), ExploreOptions{Shards: []string{addr}}) {
		terminal = err
	}
	if !errors.Is(terminal, pcerr.ErrDatasetVersion) {
		t.Errorf("got %v, want ErrDatasetVersion", terminal)
	}
	if !errors.Is(terminal, pcerr.ErrShardFailure) {
		t.Errorf("got %v, want ErrShardFailure wrap", terminal)
	}
}

// TestAllShardsUnreachableSurfacesShardFailure: with every address dead
// there is nowhere to requeue, so the typed shard-failure error surfaces
// (a live run would have retried elsewhere first).
func TestAllShardsUnreachableSurfacesShardFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more
	var terminal error
	yields := 0
	for _, err := range Explore(context.Background(), mustRequest(t), ExploreOptions{Shards: []string{addr, addr}}) {
		yields++
		terminal = err
	}
	if yields != 1 || !errors.Is(terminal, pcerr.ErrShardFailure) {
		t.Errorf("got %d yields, terminal %v; want 1 yield wrapping ErrShardFailure", yields, terminal)
	}
}

// TestShardedCancelDrainsWithoutLeak cancels a sharded exploration after
// the first result: the terminal yield must carry partial progress
// wrapping context.Canceled, and no coordinator goroutine may outlive
// the iterator.
func TestShardedCancelDrainsWithoutLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	a1, kill1 := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	a2, kill2 := startShard(t, ServeConfigStore(2, 0, 100*time.Millisecond, nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := 0
	var terminal error
	for _, err := range Explore(ctx, mustRequest(t), ExploreOptions{Shards: []string{a1, a2}}) {
		if err != nil {
			terminal = err
			continue
		}
		results++
		cancel()
	}
	if results == 0 {
		t.Error("no partial results before cancellation")
	}
	if !errors.Is(terminal, context.Canceled) {
		t.Fatalf("terminal yield %v, want context.Canceled", terminal)
	}
	var pe *pcerr.PartialError
	if !errors.As(terminal, &pe) || pe.Total == 0 || pe.Done >= pe.Total {
		t.Errorf("terminal yield %v lacks plausible partial progress", terminal)
	}
	// With the shard serve loops stopped, anything still running is a
	// leaked coordinator goroutine (shard connections, executor, drain).
	kill1()
	kill2()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count drops back to base,
// failing the test after the deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running, started with %d: coordinator leaked\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustRequest(t *testing.T) ExploreRequest {
	t.Helper()
	req, err := shardConfig().Request()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestValidateRejectsDuplicatePrograms: duplicates would double-count
// cells and corrupt the per-program indexing of every stream consumer.
func TestValidateRejectsDuplicatePrograms(t *testing.T) {
	req := mustRequest(t)
	req.Programs = append(req.Programs, req.Programs[0])
	if err := req.Validate(); !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Errorf("duplicate program: got %v, want ErrInvalidConfig", err)
	}
	yields := 0
	var terminal error
	for _, err := range Explore(context.Background(), req, ExploreOptions{}) {
		yields++
		terminal = err
	}
	if yields != 1 || !errors.Is(terminal, pcerr.ErrInvalidConfig) {
		t.Errorf("explore with duplicate program: %d yields, terminal %v; want 1 typed yield", yields, terminal)
	}
}

// TestDaemonRefusesOutOfSpaceSetting: a job spec arrives straight off the
// wire, and a parameter level past the space would index out of range
// inside the compiler. The daemon's NewRun must refuse the job typed,
// before there is a runner to run a cell with.
func TestDaemonRefusesOutOfSpaceSetting(t *testing.T) {
	req := mustRequest(t)
	req.Opts[len(req.Opts)-1].Params[opt.PMaxUnrollTimes] = opt.ParamLevelCount
	run, err := ServeConfigStore(1, 1, time.Second, nil).NewRun(wire.Raw(req.AppendWire(nil)))
	if !errors.Is(err, pcerr.ErrInvalidConfig) || run != nil {
		t.Fatalf("NewRun: runner %v, error %v; want no runner and ErrInvalidConfig", run != nil, err)
	}
}
