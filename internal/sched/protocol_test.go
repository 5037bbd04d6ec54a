package sched

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"portcc/internal/pcerr"
	"portcc/internal/wire"
)

// misbehavingShard is a scripted daemon that speaks the protocol
// correctly except for the mischief injected per assignment: results
// for cells it was never assigned, duplicate results, or both. After
// the mischief it resolves the real assignment, so a robust coordinator
// completes the grid with the mischief ignored.
func misbehavingShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
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
			// Mischief 1: a result for a cell nobody assigned.
			conn.Send(&wire.Frame{Result: &wire.Result{Index: 9999, Payload: chaosPayload(9999)}})
			// Mischief 2: a result for an assigned cell... with a wrong
			// payload, sent twice - only the FIRST (correct) resolution
			// below may count, and the duplicate must be dropped.
			for _, c := range f.Assign.Cells {
				conn.Send(&wire.Frame{Result: &wire.Result{Index: c, Payload: chaosPayload(c)}})
				conn.Send(&wire.Frame{Result: &wire.Result{Index: c, Payload: chaosCell(-1)}})
			}
		}
	}()
	return ln.Addr().String()
}

// TestUnassignedAndDuplicateResultsIgnored: a shard streaming results
// for cells it was never assigned, plus duplicate result frames for
// cells it was, must not corrupt the grid - every cell is emitted
// exactly once with the first resolution's payload, and the run
// completes cleanly.
func TestUnassignedAndDuplicateResultsIgnored(t *testing.T) {
	const cells = 10
	addr := misbehavingShard(t)
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	col := newCollector()
	done, err := r.Execute(context.Background(), chaosJob(-1, cells), col.emit)
	if err != nil {
		t.Fatalf("misbehaving shard failed the run: %v", err)
	}
	if done != cells {
		t.Fatalf("done = %d, want %d", done, cells)
	}
	col.verify(t, cells)
	col.mu.Lock()
	defer col.mu.Unlock()
	if _, ok := col.got[9999]; ok {
		t.Fatal("a result for a never-assigned cell was emitted")
	}
}

// TestAssignBeforeJobClosesConnection: a coordinator that skips the Job
// frame and assigns straight away is a protocol violation; the daemon
// must drop that connection without serving it - and keep accepting
// well-behaved coordinators afterwards.
func TestAssignBeforeJobClosesConnection(t *testing.T) {
	addr := startChaosShard(t, chaosServeConfig(1, 50*time.Millisecond), nil)

	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if _, err := conn.ClientHello(1); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if err := conn.Send(&wire.Frame{Assign: &wire.Assign{Cells: []int{0, 1}}}); err != nil {
		t.Fatalf("sending premature assign: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	if f, err := conn.Recv(); err == nil && !f.Heartbeat {
		t.Fatalf("daemon answered a premature assign with a %s frame, want connection close", f.Kind())
	} else if err == nil {
		// Heartbeats may race the close; the next read must fail.
		if f2, err2 := conn.Recv(); err2 == nil && !f2.Heartbeat {
			t.Fatalf("daemon kept serving after a premature assign (%s frame)", f2.Kind())
		}
	}

	// The daemon survives the violator: a proper run completes.
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second, Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}}
	col := newCollector()
	done, err := r.Execute(context.Background(), chaosJob(-1, 6), col.emit)
	if err != nil || done != 6 {
		t.Fatalf("daemon did not survive the protocol violator: done=%d err=%v", done, err)
	}
	col.verify(t, 6)
}

// TestUnexpectedFrameIsPermanent: a handshake-passing peer that answers
// an assignment with a Job frame is speaking nonsense; the coordinator
// must classify it permanent (no redial) and surface the typed shard
// failure once no shards remain.
func TestUnexpectedFrameIsPermanent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dials atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(nc net.Conn) {
				defer nc.Close()
				conn := wire.NewConn(nc)
				if err := conn.ServerHello(1, 50*time.Millisecond); err != nil {
					return
				}
				if f, err := conn.Recv(); err != nil || f.Job == nil {
					return
				}
				if f, err := conn.Recv(); err != nil || f.Assign == nil {
					return
				}
				conn.Send(&wire.Frame{Job: &wire.Job{Spec: chaosSpec{}}}) // nonsense
			}(nc)
		}
	}()
	r := &Remote{Addrs: []string{ln.Addr().String()}, DialTimeout: time.Second,
		Retry: RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}}
	_, err = r.Execute(context.Background(), chaosJob(-1, 4), func(int, any) {})
	if !errors.Is(err, pcerr.ErrShardFailure) {
		t.Fatalf("got %v, want ErrShardFailure", err)
	}
	if n := dials.Load(); n > 1 {
		t.Fatalf("protocol violation was redialled %d times, want permanent failure on the first", n)
	}
}

// errForeignCell is the Decode rejection of TestDecodeErrorIsPermanent.
var errForeignCell = errors.New("result names another cell")

// rawServeConfig is a worker whose payloads carry their own codec: cell
// i answers the one byte i, which crosses as wire.Raw.
func rawServeConfig() ServeConfig {
	return ServeConfig{
		Format:    1,
		Workers:   1,
		Heartbeat: 50 * time.Millisecond,
		NewRun: func(any) (func(slot, index int) (any, error), error) {
			return func(_, index int) (any, error) { return wire.Raw{byte(index)}, nil }, nil
		},
	}
}

// TestDecodeErrorIsPermanent: the coordinator hands a codec'd payload to
// the job's Decode and emits what it returns; a Decode error ends the
// connection as a permanent shard failure - no redial - wrapping the
// decoder's error.
func TestDecodeErrorIsPermanent(t *testing.T) {
	addr, fln := startChaosShardLn(t, rawServeConfig(), nil)
	retry := RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second, Retry: retry}

	col := newCollector()
	job := Job{Spec: chaosSpec{}, Cells: 6, Format: 1,
		Decode: func(index int, b []byte) (any, error) { return chaosPayload(int(b[0])), nil }}
	if done, err := r.Execute(context.Background(), job, col.emit); err != nil || done != 6 {
		t.Fatalf("decoding run: done=%d err=%v", done, err)
	}
	col.verify(t, 6)

	job.Decode = func(index int, b []byte) (any, error) {
		if index == 4 {
			return nil, errForeignCell
		}
		return chaosPayload(int(b[0])), nil
	}
	before := fln.Accepted()
	_, err := r.Execute(context.Background(), job, func(int, any) {})
	if !errors.Is(err, pcerr.ErrShardFailure) || !errors.Is(err, errForeignCell) {
		t.Fatalf("got %v, want ErrShardFailure wrapping the decode error", err)
	}
	if n := fln.Accepted() - before; n != 1 {
		t.Fatalf("a result Decode refused was redialled: %d connections, want 1", n)
	}
}

// oversizeShard is a scripted daemon that handshakes and takes the job,
// then answers its first assignment with a header claiming a 1 GiB
// frame. It calls assigned for every assignment it receives.
func oversizeShard(t *testing.T, assigned func()) string {
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
				if f, err := conn.Recv(); err != nil || f.Assign == nil {
					return
				}
				assigned()
				nc.Write(binary.BigEndian.AppendUint32(nil, 1<<30))
				nc.Write([]byte{5})
				io.Copy(io.Discard, nc) // until the coordinator hangs up
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestOversizeFrameRequeues: a shard that claims a 1 GiB frame is
// dropped like a dead one - the claim is refused before any body is
// read - and the cells it held requeue onto the healthy shard, which
// completes the grid.
func TestOversizeFrameRequeues(t *testing.T) {
	// The healthy shard holds its cells until the oversize one has been
	// assigned some, so there is always something to requeue.
	gate := make(chan struct{})
	var once sync.Once
	bad := oversizeShard(t, func() { once.Do(func() { close(gate) }) })
	cfg := chaosServeConfig(1, 50*time.Millisecond)
	newRun := cfg.NewRun
	cfg.NewRun = func(spec any) (func(slot, index int) (any, error), error) {
		run, err := newRun(spec)
		return func(slot, index int) (any, error) {
			select {
			case <-gate:
			case <-time.After(5 * time.Second):
			}
			return run(slot, index)
		}, err
	}
	good := startChaosShard(t, cfg, nil)
	r := &Remote{Addrs: []string{bad, good}, DialTimeout: time.Second,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}}
	const cells = 40
	col := newCollector()
	done, err := r.Execute(context.Background(), chaosJob(-1, cells), col.emit)
	if err != nil || done != cells {
		t.Fatalf("done=%d err=%v, want the healthy shard to finish the grid", done, err)
	}
	col.verify(t, cells)
	select {
	case <-gate:
	default:
		t.Fatal("the oversize shard was never assigned cells: nothing was requeued")
	}
}

// TestPayloadWithoutCodecFailsItsCell: a runner payload the wire cannot
// carry (no wire.Appender) fails its own cell with ErrInvalidConfig, at
// its index, and the connection keeps serving: the next assignment on
// it still answers with a result. A coordinator reports the cell's
// error, not a shard failure.
func TestPayloadWithoutCodecFailsItsCell(t *testing.T) {
	cfg := chaosServeConfig(1, 20*time.Millisecond)
	newRun := cfg.NewRun
	cfg.NewRun = func(spec any) (func(slot, index int) (any, error), error) {
		run, err := newRun(spec)
		return func(slot, index int) (any, error) {
			if index == 3 {
				return index, nil // a plain int has no wire codec
			}
			return run(slot, index)
		}, err
	}
	addr := startChaosShard(t, cfg, nil)

	nc, conn, _, err := wire.Dial(context.Background(), addr, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := conn.Send(&wire.Frame{Job: &wire.Job{Spec: chaosSpec{PanicAt: -1}}}); err != nil {
		t.Fatal(err)
	}
	for _, cell := range []int{3, 4} {
		if err := conn.Send(&wire.Frame{Assign: &wire.Assign{Cells: []int{cell}}}); err != nil {
			t.Fatalf("assigning cell %d: %v", cell, err)
		}
		f, err := conn.Recv()
		for err == nil && f.Heartbeat {
			f, err = conn.Recv()
		}
		switch {
		case err != nil:
			t.Fatalf("cell %d: %v", cell, err)
		case cell == 3 && (f.CellError == nil || f.CellError.Index != 3 || f.CellError.Code != wire.CodeInvalidConfig):
			t.Fatalf("cell 3 answered %s frame %+v, want its invalid-config cell error", f.Kind(), f)
		case cell == 4 && (f.Result == nil || f.Result.Index != 4 ||
			!bytes.Equal(f.Result.Payload.(wire.Raw), chaosPayload(4).AppendWire(nil))):
			t.Fatalf("cell 4 answered %s frame %+v, want its result", f.Kind(), f)
		}
	}

	r := &Remote{Addrs: []string{addr}, DialTimeout: time.Second, Retry: RetryPolicy{MaxAttempts: 1}}
	_, err = r.Execute(context.Background(), chaosJob(-1, 6), func(int, any) {})
	if !errors.Is(err, pcerr.ErrInvalidConfig) || errors.Is(err, pcerr.ErrShardFailure) {
		t.Fatalf("coordinator got %v, want the cell's ErrInvalidConfig and no shard failure", err)
	}
}
