package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"portcc/internal/pcerr"
)

// TestHeartbeatGraceClamped: the dead-peer window derived from a
// heartbeat period is clamped to [1s, 30s], so a daemon
// misconfigured with -heartbeat 10m cannot stretch failure detection to
// ~40 minutes.
func TestHeartbeatGraceClamped(t *testing.T) {
	for _, tc := range []struct{ hb, want time.Duration }{
		{0, time.Second},                      // unset: sane floor
		{100 * time.Millisecond, time.Second}, // short beats keep the floor
		{time.Second, 4 * time.Second},        // normal: a few missed beats
		{5 * time.Second, 20 * time.Second},   // long but legal
		{10 * time.Minute, 30 * time.Second},  // misconfigured: clamped
		{time.Hour, 30 * time.Second},         // absurd: clamped
	} {
		if got := HeartbeatGrace(tc.hb); got != tc.want {
			t.Errorf("HeartbeatGrace(%v) = %v, want %v", tc.hb, got, tc.want)
		}
	}
}

// logBuf collects a server's log lines.
type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logBuf) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// startServer runs srv on ln; the returned stop cancels it and hands
// back Serve's error once every connection has exited.
func startServer(t *testing.T, srv Server, ln net.Listener, handle func(context.Context, *Conn, string)) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, handle) }()
	var once sync.Once
	var err error
	stop = func() error {
		once.Do(func() {
			cancel()
			select {
			case err = <-served:
			case <-time.After(10 * time.Second):
				err = fmt.Errorf("Serve still running 10s after cancellation")
			}
		})
		return err
	}
	t.Cleanup(func() { stop() })
	return stop
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// recvSkippingHeartbeats reads the next non-heartbeat frame, bounded so
// a broken server fails the test instead of hanging it.
func recvSkippingHeartbeats(nc net.Conn, c *Conn) (*Frame, error) {
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		f, err := c.Recv()
		if err != nil || !f.Heartbeat {
			return f, err
		}
	}
}

// echoAssigns answers every Assign with one Result carrying its first
// cell index.
func echoAssigns(_ context.Context, c *Conn, _ string) {
	for {
		f, err := c.Recv()
		if err != nil || f.Assign == nil {
			return
		}
		if c.Send(&Frame{Result: &Result{Index: f.Assign.Cells[0], Payload: Raw("echo")}}) != nil {
			return
		}
	}
}

// flakyListener fails its first few Accepts with a temporary error
// (simulated fd exhaustion), then delegates to the real listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: too many open files (simulated)" }
func (tempAcceptErr) Timeout() bool   { return false }
func (tempAcceptErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTransientAcceptErrors: EMFILE-style accept failures
// must not kill a daemon - Serve backs off and keeps accepting, so a
// client arriving during fd pressure is still handshaken and served,
// and the loop still exits cleanly afterwards. Both fleet services run
// on this loop, so this covers the job daemon and the store service.
func TestServeRetriesTransientAcceptErrors(t *testing.T) {
	ln := listen(t)
	fl := &flakyListener{Listener: ln}
	fl.failures.Store(3)
	var logs logBuf
	stop := startServer(t, Server{Format: 7, Heartbeat: 50 * time.Millisecond, Logf: logs.logf}, fl, echoAssigns)

	nc, c, grace, err := Dial(context.Background(), ln.Addr().String(), 7, 2*time.Second)
	if err != nil {
		t.Fatalf("dial against a daemon under accept pressure: %v", err)
	}
	defer nc.Close()
	if grace != time.Second {
		t.Errorf("grace %v for a 50ms heartbeat, want the 1s floor", grace)
	}
	if err := c.Send(&Frame{Assign: &Assign{Cells: []int{41}}}); err != nil {
		t.Fatal(err)
	}
	f, err := recvSkippingHeartbeats(nc, c)
	if err != nil || f.Result == nil || f.Result.Index != 41 {
		t.Fatalf("echo through the retried accept loop: frame %+v, err %v", f, err)
	}
	if err := stop(); err != nil {
		t.Errorf("Serve returned %v after transient accept errors, want nil", err)
	}
	if n := logs.count("accept: "); n != 3 {
		t.Errorf("%d accept-retry log lines, want 3", n)
	}
}

// TestServeReturnsPermanentAcceptError: an accept failure that is
// neither transient nor the loop's own shutdown ends Serve with it.
func TestServeReturnsPermanentAcceptError(t *testing.T) {
	ln := listen(t)
	ln.Close() // Accept now fails with net.ErrClosed, and nobody asked to stop
	err := Server{Format: 1}.Serve(context.Background(), ln, echoAssigns)
	if err == nil {
		t.Fatal("Serve on a dead listener returned nil, want the accept error")
	}
}

// TestMutePeerIsDropped: a peer that connects and never speaks must not
// pin a goroutine and an fd for the daemon's life - the handshake is
// bounded by the window clients give a silent server, after which the
// connection is logged and closed without the handler ever running.
func TestMutePeerIsDropped(t *testing.T) {
	ln := listen(t)
	var logs logBuf
	var handled atomic.Int32
	stop := startServer(t, Server{Format: 1, Heartbeat: 20 * time.Millisecond, Logf: logs.logf}, ln,
		func(context.Context, *Conn, string) { handled.Add(1) })

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The server hangs up first: EOF well inside the test's own bound.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("mute client read %v after %v, want EOF from the server's handshake deadline", err, time.Since(start))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 0 {
		t.Error("handler ran for a peer that never completed the handshake")
	}
	if logs.count("handshake: ") != 1 || logs.count("closed ") != 1 {
		t.Errorf("log lines %q, want one handshake failure and one close", logs.lines)
	}
}

// TestDrainThenCancel pins the two-phase stop on one loop. A drain
// closes the listener and pokes reads only: a handler idle in Recv
// ends, a handler with a reply in flight still delivers it. The
// drain does not disarm the hard stop, so a later cancellation still
// ends a handler blocked in a write.
func TestDrainThenCancel(t *testing.T) {
	ln := listen(t)
	drain := make(chan struct{})
	started := make(chan struct{})   // the busy handler has its request
	release := make(chan struct{})   // ... and may answer it
	idlePoked := make(chan struct{}) // ... and saw its next idle read poked
	flood := &Frame{Result: &Result{Payload: make(Raw, 1<<18)}}
	handle := func(_ context.Context, c *Conn, _ string) {
		if _, err := c.Recv(); err != nil {
			return // the idle connection: drained before any request
		}
		close(started)
		<-release
		c.Send(&Frame{Result: &Result{Index: 7, Payload: Raw("late")}})
		if _, err := c.Recv(); err == nil {
			t.Error("read after a drain succeeded, want the drain's poke")
		}
		close(idlePoked)
		// The client has stopped reading: this blocks once the socket
		// buffers fill, and only the hard stop's write poke ends it.
		for c.Send(flood) == nil {
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- Server{Format: 1, Heartbeat: 20 * time.Millisecond, Drain: drain}.Serve(ctx, ln, handle)
	}()

	addr := ln.Addr().String()
	idleNC, idle, _, err := Dial(context.Background(), addr, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer idleNC.Close()
	busyNC, busy, _, err := Dial(context.Background(), addr, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer busyNC.Close()
	if err := busy.Send(&Frame{Assign: &Assign{Cells: []int{7}}}); err != nil {
		t.Fatal(err)
	}
	<-started

	close(drain)
	if f, err := recvSkippingHeartbeats(idleNC, idle); err != io.EOF {
		t.Fatalf("idle connection after drain: frame %+v, err %v, want EOF", f, err)
	}
	close(release)
	f, err := recvSkippingHeartbeats(busyNC, busy)
	if err != nil || f.Result == nil || f.Result.Index != 7 {
		t.Fatalf("in-flight reply across a drain: frame %+v, err %v", f, err)
	}
	<-idlePoked
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a handler still writing; a drain must not poke writes", err)
	default:
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after drain then cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel after a drain did not hard-stop the blocked handler")
	}
}

// TestDrainMidHandshakeIsNotErased: a drain that lands while a peer is
// still handshaking must survive the server clearing its handshake
// deadline - the connection is drained as soon as it goes idle, and
// Serve returns, instead of the handler idling on it forever.
func TestDrainMidHandshakeIsNotErased(t *testing.T) {
	ln := listen(t)
	drain := make(chan struct{})
	accepted := make(chan struct{})
	logf := func(format string, _ ...any) {
		if strings.HasPrefix(format, "serving ") {
			close(accepted)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Server{Format: 1, Drain: drain, Logf: logf}.Serve(ctx, ln, echoAssigns) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	<-accepted // the server is now blocked reading our hello
	close(drain)
	c := NewConn(nc)
	if _, err := c.ClientHello(1); err != nil {
		t.Fatalf("handshake across a drain: %v", err)
	}
	if f, err := recvSkippingHeartbeats(nc, c); err != io.EOF {
		t.Fatalf("idle connection handshaken across a drain: frame %+v, err %v, want EOF", f, err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("drained Serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still running after a drain with no connection left")
	}
}

// TestDialMutePeerTimesOut: a listener that accepts and never speaks
// (hung daemon, wrong service behind the port) fails the dial within
// its timeout, and the socket is closed rather than leaked.
func TestDialMutePeerTimesOut(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	start := time.Now()
	nc, _, _, err := Dial(context.Background(), ln.Addr().String(), 1, 200*time.Millisecond)
	if err == nil {
		nc.Close()
		t.Fatal("Dial against a mute peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Dial took %v against a mute peer, want bounded by its 200ms timeout", elapsed)
	}
	peer := <-accepted
	defer peer.Close()
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The client's hello arrives first, then the close.
	if _, err := io.Copy(io.Discard, peer); err != nil {
		t.Errorf("mute peer read %v, want EOF: the failed dial must close its socket", err)
	}
}

// TestDialCancelledMidHandshake: cancelling the caller's context ends a
// handshake blocked on a mute peer at once, not at the dial timeout.
func TestDialCancelledMidHandshake(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		cancel() // the client is now connected and waiting for our hello
		io.Copy(io.Discard, c)
	}()
	start := time.Now()
	nc, _, _, err := Dial(ctx, ln.Addr().String(), 1, 30*time.Second)
	if err == nil {
		nc.Close()
		t.Fatal("Dial under a cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled Dial took %v, want prompt", elapsed)
	}
}

// TestServerDropsOversizeClaims: a raw TCP peer claiming a 1 GiB frame -
// as its Hello, or after a clean handshake - is dropped with the typed
// error, and the server keeps serving.
func TestServerDropsOversizeClaims(t *testing.T) {
	ln := listen(t)
	var logs logBuf
	handlerErr := make(chan error, 1)
	startServer(t, Server{Format: 1, Heartbeat: 20 * time.Millisecond, Logf: logs.logf}, ln,
		func(_ context.Context, c *Conn, _ string) {
			_, err := c.Recv()
			handlerErr <- err
		})

	// dropped reports whether the server hung up on nc in time, skipping
	// whatever it sent before.
	dropped := func(nc net.Conn) bool {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, nc)
		return err == nil
	}

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(rawFrame(true, 1<<30, kindHello)); err != nil {
		t.Fatal(err)
	}
	if !dropped(nc) {
		t.Fatal("server kept a peer whose hello claimed 1 GiB")
	}
	if logs.count(pcerr.ErrWireFrame.Error()) != 1 {
		t.Errorf("log lines %q, want one typed handshake failure", logs.lines)
	}

	nc, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := NewConn(nc).ClientHello(1); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if _, err := nc.Write(rawFrame(false, 1<<30, kindAssign)); err != nil {
		t.Fatal(err)
	}
	if err := <-handlerErr; !errors.Is(err, pcerr.ErrWireFrame) {
		t.Errorf("handler's Recv got %v, want ErrWireFrame", err)
	}
	if !dropped(nc) {
		t.Fatal("server kept a peer that claimed a 1 GiB frame")
	}
}
