package sched

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"portcc/internal/pcerr"
)

// TestWedgedShardDoesNotHang: a peer that accepts the TCP connection but
// never speaks (hung daemon, wrong service behind the port) must not
// hang Execute - the bounded handshake deadline turns it into an
// ordinary shard failure, surfaced typed once no shards remain.
func TestWedgedShardDoesNotHang(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept, then silence
		}
	}()

	r := &Remote{Addrs: []string{ln.Addr().String()}, DialTimeout: 200 * time.Millisecond}
	job := chaosJob(-1, 3)
	start := time.Now()
	done, err := r.Execute(context.Background(), job, func(int, any) {
		t.Error("wedged shard emitted a result")
	})
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Execute took %v against a silent peer, want bounded by the handshake deadline", elapsed)
	}
	if done != 0 {
		t.Errorf("%d cells done against a silent peer, want 0", done)
	}
	if !errors.Is(err, pcerr.ErrShardFailure) {
		t.Errorf("got %v, want ErrShardFailure", err)
	}
}

// TestBackoffDelayBoundedAndSeeded: redial delays grow exponentially
// from BaseBackoff, never exceed MaxBackoff, keep at least half the
// nominal delay after jitter, and replay identically under one seed.
func TestBackoffDelayBoundedAndSeeded(t *testing.T) {
	pol := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}.withDefaults()
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	nominal := pol.BaseBackoff
	for attempt := 1; attempt <= 10; attempt++ {
		da, db := backoffDelay(pol, a, attempt), backoffDelay(pol, b, attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed, different delays %v vs %v", attempt, da, db)
		}
		if nominal > pol.MaxBackoff {
			nominal = pol.MaxBackoff
		}
		if da < nominal/2 || da > nominal {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, da, nominal/2, nominal)
		}
		nominal *= 2
	}
}

// TestMutePeerIsDropped: the job daemon runs on wire.Server, so a peer
// that connects and never speaks is hung up on once the handshake window
// passes instead of pinning a goroutine and an fd for the daemon's life.
func TestMutePeerIsDropped(t *testing.T) {
	addr := startChaosShard(t, chaosServeConfig(1, 20*time.Millisecond), nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("mute client read %v, want EOF from the daemon's handshake deadline", err)
	}
}

// TestRemoteRequiresAddrs: a Remote without shard addresses, or a job
// without a spec to ship, is a configuration error, not a hang or a
// silent local fallback.
func TestRemoteRequiresAddrs(t *testing.T) {
	var r Remote
	if _, err := r.Execute(context.Background(), chaosJob(-1, 1), func(int, any) {}); !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Errorf("no addresses: got %v, want ErrInvalidConfig", err)
	}
	r.Addrs = []string{"127.0.0.1:1"}
	if _, err := r.Execute(context.Background(), Job{Cells: 1, Format: 1}, func(int, any) {}); !errors.Is(err, pcerr.ErrInvalidConfig) {
		t.Errorf("no spec: got %v, want ErrInvalidConfig", err)
	}
}

// TestAdaptChunkShrinksTowardTail pins the adaptive assignment size: full
// chunks mid-run, shrinking monotonically toward single cells as the
// remaining work approaches what the live shards hold in flight.
func TestAdaptChunkShrinksTowardTail(t *testing.T) {
	for _, tc := range []struct{ chunk, remaining, live, want int }{
		{8, 1000, 2, 8}, // mid-run: full chunk
		{8, 32, 2, 8},   // exactly 2*live*chunk: still full
		{8, 16, 2, 4},   // shards*chunk remaining: halved
		{8, 8, 2, 2},    // deep tail
		{8, 3, 2, 1},    // final cells go one by one
		{8, 1, 2, 1},
		{8, 16, 1, 8}, // one live shard: no reason to shrink early
		{8, 4, 1, 2},
		{8, 5, 0, 2}, // degenerate live count clamps to 1
	} {
		if got := adaptChunk(tc.chunk, tc.remaining, tc.live); got != tc.want {
			t.Errorf("adaptChunk(%d, %d, %d) = %d, want %d", tc.chunk, tc.remaining, tc.live, got, tc.want)
		}
	}
	// Monotone: a shrinking tail never grows an assignment.
	prev := 8
	for rem := 100; rem >= 1; rem-- {
		got := adaptChunk(8, rem, 3)
		if got > prev {
			t.Fatalf("adaptChunk grew from %d to %d at remaining=%d", prev, got, rem)
		}
		prev = got
	}
}

// TestTailRequeueRedistributes drives the dispenser directly through a
// shard death at the tail: assignments shrink from full chunks to single
// cells as the grid drains, the dead shard's cells requeue, and the
// survivor receives them lowest-index-first in tail-sized assignments -
// the deterministic dispatch contract, with less work stranded per death.
func TestTailRequeueRedistributes(t *testing.T) {
	ctx := context.Background()
	st := newRemoteState(80, 2, 5)

	a := st.take(ctx, 8)
	b := st.take(ctx, 8) // the doomed shard holds these until it dies
	if len(a) != 8 || a[0] != 0 || len(b) != 8 || b[0] != 8 {
		t.Fatalf("mid-run chunks wrong: %v / %v", a, b)
	}
	for range a {
		st.complete()
	}

	// The survivor drains the pending cells; assignments shrink toward
	// single cells as the tail approaches.
	var sizes []int
	next := 16
	for {
		cs := st.take(ctx, 8)
		if len(cs) == 0 || cs[0] != next {
			t.Fatalf("assignment %v, want start %d (lowest pending first)", cs, next)
		}
		sizes = append(sizes, len(cs))
		next = cs[len(cs)-1] + 1
		for range cs {
			st.complete()
		}
		if next == 80 {
			break
		}
	}
	want := []int{8, 8, 8, 8, 8, 8, 6, 4, 3, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("drain sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("drain sizes %v, want %v", sizes, want)
		}
	}

	// Only the doomed shard's 8 cells remain. It dies; they requeue and
	// the survivor gets them back lowest-first in tail-sized pieces.
	st.shardExit(b, errors.New("shard died"))
	var tail [][]int
	for {
		cs := st.take(ctx, 8)
		if cs == nil {
			break
		}
		tail = append(tail, cs)
		for range cs {
			st.complete()
		}
	}
	flat := []int{}
	for _, cs := range tail {
		flat = append(flat, cs...)
	}
	for i, c := range flat {
		if c != 8+i {
			t.Fatalf("requeued cells dispensed as %v, want 8..15 in order", flat)
		}
	}
	if len(tail) == 0 || len(tail[0]) != 4 {
		t.Fatalf("first post-requeue assignment %v, want 4 cells (tail-sized)", tail)
	}
	if st.done != 80 || st.unresolved != 0 {
		t.Fatalf("ledger done=%d unresolved=%d, want 80/0", st.done, st.unresolved)
	}
}
