package sched

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"portcc/internal/faultnet"
	"portcc/internal/pcerr"
	"portcc/internal/wire"
)

// chaosSpec is the synthetic job spec of the chaos tests: cell index ->
// deterministic payload, with an optional cell that panics. It crosses
// the wire as PanicAt, one varint.
type chaosSpec struct {
	PanicAt int // cell index whose runner panics; -1 for none
}

func (s chaosSpec) AppendWire(b []byte) []byte { return binary.AppendVarint(b, int64(s.PanicAt)) }

// chaosCell is a chaos cell's payload, crossing the wire as one varint.
type chaosCell int

func (c chaosCell) AppendWire(b []byte) []byte { return binary.AppendVarint(b, int64(c)) }

func chaosPayload(index int) chaosCell { return chaosCell(index*31 + 7) }

// varint decodes b, which must hold exactly one varint.
func varint(b []byte) (int, error) {
	v, n := binary.Varint(b)
	if n <= 0 || n != len(b) {
		return 0, fmt.Errorf("%x is not one varint", b)
	}
	return int(v), nil
}

// chaosJob is a chaosSpec job of the given size whose payloads decode
// back into chaosCells.
func chaosJob(panicAt, cells int) Job {
	return Job{Spec: chaosSpec{PanicAt: panicAt}, Cells: cells, Format: 1,
		Decode: func(_ int, b []byte) (any, error) {
			v, err := varint(b)
			return chaosCell(v), err
		}}
}

// chaosServeConfig builds an in-process worker for chaosSpec jobs.
func chaosServeConfig(workers int, hb time.Duration) ServeConfig {
	return ServeConfig{
		Format:    1,
		Workers:   workers,
		Heartbeat: hb,
		NewRun: func(spec any) (func(slot, index int) (any, error), error) {
			raw, ok := spec.(wire.Raw)
			if !ok {
				return nil, fmt.Errorf("spec is %T, want wire.Raw", spec)
			}
			panicAt, err := varint(raw)
			if err != nil {
				return nil, err
			}
			return func(slot, index int) (any, error) {
				if index == panicAt {
					panic(fmt.Sprintf("injected panic at cell %d", index))
				}
				return chaosPayload(index), nil
			}, nil
		},
	}
}

// startChaosShard serves chaosSpec jobs on a loopback listener wrapped
// with the given fault plan, returning the dial address.
func startChaosShard(t *testing.T, cfg ServeConfig, plan faultnet.Plan) string {
	addr, _ := startChaosShardLn(t, cfg, plan)
	return addr
}

// startChaosShardLn is startChaosShard that also returns the faulted
// listener, whose Fired count tells which faults struck.
func startChaosShardLn(t *testing.T, cfg ServeConfig, plan faultnet.Plan) (string, *faultnet.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.Wrap(ln, plan)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, fln, cfg)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String(), fln
}

// collector gathers emitted cells, guarding against double emission.
type collector struct {
	mu   sync.Mutex
	got  map[int]any
	dups int
}

func newCollector() *collector { return &collector{got: map[int]any{}} }

func (c *collector) emit(index int, payload any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.got[index]; ok {
		c.dups++
		return
	}
	c.got[index] = payload
}

// verify checks the collected cells against the local ground truth:
// every cell exactly once, every payload the deterministic function of
// its index - the synthetic equivalent of "dataset byte-identical to
// the local run".
func (c *collector) verify(t *testing.T, cells int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dups > 0 {
		t.Fatalf("%d cells emitted more than once", c.dups)
	}
	if len(c.got) != cells {
		t.Fatalf("%d cells emitted, want %d", len(c.got), cells)
	}
	for i := 0; i < cells; i++ {
		if c.got[i] != chaosPayload(i) {
			t.Fatalf("cell %d payload %v, want %v", i, c.got[i], chaosPayload(i))
		}
	}
}

// fastRetry is the chaos-test policy: quick redials, a budget deep
// enough to outlast any Seeded fault prefix, quarantine effectively off
// (individual tests tighten it on purpose).
func fastRetry(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		MaxStrands:  1000,
		Seed:        seed,
	}
}

// TestChaosMatrix runs one job per seed against a worker whose listener
// injects a seeded, deterministic fault schedule (reset on accept,
// death after N reads or writes, mid-frame cuts, slow links). Every
// schedule heals after its faulted prefix, so with a retry budget
// deeper than the prefix each run must end with the full grid emitted
// exactly once and byte-equivalent to the local ground truth - or, if
// it fails at all, with a correctly-typed error. The schedules must
// actually strike: the worker reads through a buffer, so a read budget
// counts reads, not frames, and the matrix checks that read faults
// still fire.
func TestChaosMatrix(t *testing.T) {
	const cells = 40
	var mu sync.Mutex
	var fired faultnet.Fired
	t.Cleanup(func() {
		t.Logf("faults struck over the matrix: %+v", fired)
		if fired.Reads == 0 {
			t.Error("no read fault struck: the schedules no longer reach the worker's reads")
		}
	})
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			addr, fln := startChaosShardLn(t, chaosServeConfig(2, 20*time.Millisecond), faultnet.Seeded(seed, 6))
			t.Cleanup(func() {
				mu.Lock()
				defer mu.Unlock()
				f := fln.Fired()
				fired.Resets += f.Resets
				fired.Reads += f.Reads
				fired.Writes += f.Writes
			})
			r := &Remote{Addrs: []string{addr}, DialTimeout: 2 * time.Second, Retry: fastRetry(seed)}
			col := newCollector()
			done, err := r.Execute(context.Background(), chaosJob(-1, cells), col.emit)
			if err != nil {
				if !errors.Is(err, pcerr.ErrShardFailure) && !errors.Is(err, pcerr.ErrCellPoisoned) {
					t.Fatalf("chaos run failed untyped: %v", err)
				}
				t.Logf("typed failure after %d cells: %v", done, err)
				return
			}
			if done != cells {
				t.Fatalf("done = %d, want %d", done, cells)
			}
			col.verify(t, cells)
		})
	}
}

// TestReconnectRejoinsMidRun is the acceptance core: the only shard's
// connection is killed mid-run (after a fixed read budget), the daemon
// stays up, and the coordinator's redial rejoins the same run - the
// grid completes with every cell exactly once and no shard error.
func TestReconnectRejoinsMidRun(t *testing.T) {
	const cells = 30
	// Connection 0 dies after enough reads to be mid-run (handshake +
	// job + a few assignments); connection 1 is clean.
	plan := func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{CloseAfterReads: 8}
		}
		return faultnet.Fault{}
	}
	addr := startChaosShard(t, chaosServeConfig(2, 20*time.Millisecond), plan)
	r := &Remote{Addrs: []string{addr}, DialTimeout: 2 * time.Second, Retry: fastRetry(1)}
	col := newCollector()
	done, err := r.Execute(context.Background(), chaosJob(-1, cells), col.emit)
	if err != nil {
		t.Fatalf("mid-run connection death was not absorbed: %v", err)
	}
	if done != cells {
		t.Fatalf("done = %d, want %d", done, cells)
	}
	col.verify(t, cells)
}

// TestRetryBudgetExhaustsTyped: an address whose every connection dies
// on accept burns the retry budget and surfaces the typed shard
// failure - it must not spin forever.
func TestRetryBudgetExhaustsTyped(t *testing.T) {
	addr := startChaosShard(t, chaosServeConfig(1, 20*time.Millisecond),
		func(int) faultnet.Fault { return faultnet.Fault{AcceptReset: true} })
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}}
	start := time.Now()
	done, err := r.Execute(context.Background(), chaosJob(-1, 5), func(int, any) {
		t.Error("reset-on-accept shard emitted a result")
	})
	if done != 0 || !errors.Is(err, pcerr.ErrShardFailure) {
		t.Fatalf("done=%d err=%v, want 0 cells and ErrShardFailure", done, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget exhaustion took %v, want prompt", elapsed)
	}
}

// TestVersionMismatchNotRetried: a shard built against another schema
// can never succeed, so the coordinator must fail it permanently on the
// first attempt instead of burning the backoff schedule on it.
func TestVersionMismatchNotRetried(t *testing.T) {
	cfg := chaosServeConfig(1, 20*time.Millisecond)
	cfg.Format = 2 // job carries format 1
	addr := startChaosShard(t, cfg, nil)
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second,
		Retry: RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Second, MaxBackoff: time.Second}}
	start := time.Now()
	_, err := r.Execute(context.Background(), chaosJob(-1, 3), func(int, any) {})
	if !errors.Is(err, pcerr.ErrDatasetVersion) || !errors.Is(err, pcerr.ErrShardFailure) {
		t.Fatalf("got %v, want ErrShardFailure wrapping ErrDatasetVersion", err)
	}
	// 100 attempts x 1s backoff would take minutes; permanent errors
	// skip the schedule entirely.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("version mismatch took %v, want no retries", elapsed)
	}
}

// TestPanicIsolation: a cell whose runner panics degrades to a typed
// CellError at its own index - and the daemon survives to serve a
// second, clean job on the same serve loop.
func TestPanicIsolation(t *testing.T) {
	const cells = 12
	addr := startChaosShard(t, chaosServeConfig(2, 20*time.Millisecond), nil)
	r := &Remote{Addrs: []string{addr}, DialTimeout: 2 * time.Second, Retry: fastRetry(2)}

	col := newCollector()
	_, err := r.Execute(context.Background(), chaosJob(5, cells), col.emit)
	if !errors.Is(err, pcerr.ErrCellPanic) {
		t.Fatalf("got %v, want ErrCellPanic", err)
	}
	if errors.Is(err, pcerr.ErrShardFailure) {
		t.Fatal("a recovered cell panic was reported as a shard failure")
	}

	// The same daemon process must keep serving: a clean job completes.
	col2 := newCollector()
	done, err := r.Execute(context.Background(), chaosJob(-1, cells), col2.emit)
	if err != nil || done != cells {
		t.Fatalf("daemon did not survive the panic: done=%d err=%v", done, err)
	}
	col2.verify(t, cells)
}

// poisonShard is a scripted daemon that crashes (drops the connection)
// whenever an assignment contains the poison cell, after resolving the
// assignment's other cells - the canonical poison-cell shape: every
// connection that touches the cell dies, every other cell progresses.
func poisonShard(t *testing.T, poison int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				conn := wire.NewConn(nc)
				if err := conn.ServerHello(1, 50*time.Millisecond); err != nil {
					return
				}
				if f, err := conn.Recv(); err != nil || f.Job == nil {
					return
				}
				for {
					f, err := conn.Recv()
					if err != nil || f.Assign == nil {
						return
					}
					crash := false
					for _, c := range f.Assign.Cells {
						if c == poison {
							crash = true
							continue
						}
						conn.Send(&wire.Frame{Result: &wire.Result{Index: c, Payload: chaosPayload(c)}})
					}
					if crash {
						return // daemon "killed" by the poison cell
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestPoisonCellQuarantined: a cell that kills every connection it is
// assigned to must not loop forever under reconnect. After MaxStrands
// strandings the coordinator quarantines it and fails typed at the
// cell's own index; cells below it complete first (lowest-index-error
// contract preserved).
func TestPoisonCellQuarantined(t *testing.T) {
	const cells, poison = 20, 9
	addr := poisonShard(t, poison)
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, MaxStrands: 3}}
	col := newCollector()
	start := time.Now()
	_, err := r.Execute(context.Background(), chaosJob(-1, cells), col.emit)
	if !errors.Is(err, pcerr.ErrCellPoisoned) {
		t.Fatalf("got %v, want ErrCellPoisoned", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("quarantine took %v, want prompt", elapsed)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	for i := 0; i < poison; i++ {
		if _, ok := col.got[i]; !ok {
			t.Errorf("cell %d below the poison index never completed", i)
		}
	}
	if _, ok := col.got[poison]; ok {
		t.Error("the poison cell itself was emitted")
	}
}

// TestStrandQuarantineContract drives the dispenser directly through
// take/strand cycles: the same cell riding MaxStrands dying connections
// is quarantined with the typed error at its own index, pending cells
// above it are dropped, and the grid settles (finished closes).
func TestStrandQuarantineContract(t *testing.T) {
	ctx := context.Background()
	st := newRemoteState(6, 1, 3)
	// Cells 0..2 complete normally on their first ride.
	for want := 0; want < 3; want++ {
		got := st.take(ctx, 1)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("take = %v, want [%d]", got, want)
		}
		st.complete()
	}
	// Cell 3 rides three dying connections in a row.
	for ride := 1; ride <= 3; ride++ {
		got := st.take(ctx, 1)
		if len(got) != 1 || got[0] != 3 {
			t.Fatalf("ride %d: take = %v, want [3]", ride, got)
		}
		if st.failErr != nil {
			t.Fatalf("quarantined after only %d strandings: %v", ride-1, st.failErr)
		}
		st.strand(got)
	}
	if !errors.Is(st.failErr, pcerr.ErrCellPoisoned) || st.failIdx != 3 {
		t.Fatalf("failIdx=%d failErr=%v, want poisoned cell 3", st.failIdx, st.failErr)
	}
	// Quarantine resolved cell 3 and dropped pending 4 and 5: the grid
	// is settled, the dispenser is empty, backing-off loops wake.
	if st.unresolved != 0 {
		t.Fatalf("unresolved = %d after quarantine, want 0", st.unresolved)
	}
	if got := st.take(ctx, 1); got != nil {
		t.Fatalf("post-quarantine take = %v, want nil", got)
	}
	select {
	case <-st.finished:
	default:
		t.Fatal("finished channel not closed after the grid settled")
	}
}
