// The connection runtime under both fleet services: sched.Serve and
// store.Service are handlers on the one accept loop (Server), and
// sched.Remote and store.Remote open every connection through the one
// Dial. What differs - their frames, and what a client does after a
// connection dies - stays in their packages.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// expired is a deadline in the past: setting it unblocks blocked I/O.
var expired = time.Unix(1, 0)

// HeartbeatGrace turns a heartbeat period into the window a quiet peer
// may stay silent before it counts as dead: a few missed beats, clamped
// to [1s, 30s] - a daemon misconfigured with -heartbeat 10m must not
// make its clients wait most of an hour before declaring it dead.
func HeartbeatGrace(hb time.Duration) time.Duration {
	return min(max(4*hb, time.Second), 30*time.Second)
}

// DeadlineFor is how a connection whose context pokes it on cancellation
// (SetDeadline in the past) re-arms a deadline: a cancelled context
// yields an already-expired one, so a re-arm racing the poke re-asserts
// it instead of silently granting a blocked operation another window.
func DeadlineFor(ctx context.Context, d time.Duration) time.Time {
	if ctx.Err() != nil {
		return expired
	}
	return time.Now().Add(d)
}

// Server is the accept loop of a wire service.
type Server struct {
	// Format is the application schema version announced in the
	// handshake; peers built against another are refused typed.
	Format int
	// Heartbeat is the period at which quiet connections prove the
	// server alive (default 1s); clients treat a few missed beats
	// (HeartbeatGrace) as a dead peer.
	Heartbeat time.Duration
	// Drain, when closed, drains the loop gracefully: stop accepting,
	// let handlers finish what is in flight, then close. A nil Drain
	// never fires.
	Drain <-chan struct{}
	// Logf, when set, receives one line per connection event.
	Logf func(format string, args ...any)
}

// Serve accepts connections on ln until ctx is cancelled (hard stop:
// in-flight work is abandoned) or s.Drain is closed (graceful), then
// blocks until every connection has exited. Each connection is
// handshaken, carries heartbeats while handle runs, and is closed when
// handle returns; peer is its remote address, for log lines. The
// listener is closed on return.
func (s Server) Serve(ctx context.Context, ln net.Listener, handle func(ctx context.Context, c *Conn, peer string)) error {
	if s.Heartbeat <= 0 {
		s.Heartbeat = time.Second
	}
	if s.Logf == nil {
		s.Logf = func(string, ...any) {}
	}
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-ctx.Done():
		case <-s.Drain:
		case <-stopped:
		}
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	var acceptDelay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-s.Drain:
				return nil
			default:
			}
			// Transient accept failures (EMFILE under fd pressure, an
			// aborted connection, an interrupted syscall) must not kill a
			// daemon that is mid-way through serving other peers: back
			// off briefly and keep accepting. Only listener closure or a
			// permanent error ends the loop.
			if transientAcceptErr(err) {
				if acceptDelay < 5*time.Millisecond {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.Logf("accept: %v (retrying in %v)", err, acceptDelay)
				select {
				case <-time.After(acceptDelay):
				case <-ctx.Done():
					return nil
				case <-s.Drain:
					return nil
				}
				continue
			}
			return err
		}
		acceptDelay = 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer nc.Close()
			peer := nc.RemoteAddr().String()
			s.Logf("serving %s", peer)
			s.serveConn(ctx, nc, peer, handle)
			s.Logf("closed %s", peer)
		}()
	}
}

// transientAcceptErr classifies Accept failures worth retrying: timeouts
// and the temporary syscall family (EMFILE/ENFILE fd exhaustion,
// ECONNABORTED, EINTR) as reported by the net.Error the runtime wraps
// them in. Listener closure is never transient.
func transientAcceptErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		return false
	}
	//lint:ignore SA1019 Temporary is exactly the accept-retry predicate
	// (EMFILE, ENFILE, ECONNABORTED, EINTR, timeouts); the deprecation
	// targets its vaguer uses.
	return ne.Timeout() || ne.Temporary()
}

// serveConn runs one connection: bounded handshake, stop pokes,
// heartbeat ticker, then the service's handler.
func (s Server) serveConn(ctx context.Context, nc net.Conn, peer string, handle func(context.Context, *Conn, string)) {
	// Cancellation kills the connection outright, mid-handshake included.
	// The poke closes over its own copy: a failure return below clears
	// the named result nc while a cancellation's poke may still be running.
	raw := nc
	stop := context.AfterFunc(ctx, func() { raw.SetDeadline(expired) })
	defer stop()

	// A peer that connects and never speaks must not pin this goroutine
	// and its fd for the daemon's life: the handshake gets the window the
	// clients give a silent server.
	conn := NewConn(nc)
	nc.SetDeadline(DeadlineFor(ctx, HeartbeatGrace(s.Heartbeat)))
	if err := conn.ServerHello(s.Format, s.Heartbeat); err != nil {
		s.Logf("%s: handshake: %v", peer, err)
		return
	}
	// Clearing the handshake deadline must not erase a stop that landed
	// during it: a cancellation's poke is re-asserted, and a drain is only
	// watched from here on (an already-closed Drain fires at once). The
	// drain pokes reads only, so a handler's idle wait for the next
	// request ends while whatever it has in flight keeps writing, and a
	// later cancellation still hard-stops.
	nc.SetDeadline(time.Time{})
	if ctx.Err() != nil {
		nc.SetDeadline(expired)
	}
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-s.Drain:
			nc.SetReadDeadline(expired)
		case <-connDone:
		}
	}()

	// Heartbeats share the connection's write lock with the handler's frames.
	hbDone := make(chan struct{})
	defer close(hbDone)
	go func() {
		t := time.NewTicker(s.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if conn.Send(&Frame{Heartbeat: true}) != nil {
					return
				}
			case <-hbDone:
				return
			}
		}
	}()

	handle(ctx, conn, peer)
}

// Dial opens a client connection: TCP connect, then the handshake, each
// bounded by timeout (a peer that accepts and never speaks fails like an
// unreachable one) and cut short by ctx's cancellation. On success the
// deadline is cleared and the caller owns nc (per-operation deadlines,
// Close); grace is the server's dead-peer window, HeartbeatGrace of its
// announced heartbeat. On failure the socket is closed; a version-skewed
// peer's error wraps its pcerr sentinel.
func Dial(ctx context.Context, addr string, format int, timeout time.Duration) (nc net.Conn, conn *Conn, grace time.Duration, err error) {
	d := net.Dialer{Timeout: timeout}
	nc, err = d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, 0, err
	}
	// The poke closes over its own copy: a failure return below clears
	// the named result nc while a cancellation's poke may still be running.
	raw := nc
	stop := context.AfterFunc(ctx, func() { raw.SetDeadline(expired) })
	defer stop()
	nc.SetDeadline(DeadlineFor(ctx, timeout))
	conn = NewConn(nc)
	hb, err := conn.ClientHello(format)
	if err != nil {
		nc.Close()
		return nil, nil, 0, fmt.Errorf("handshake: %w", err)
	}
	nc.SetDeadline(time.Time{})
	return nc, conn, HeartbeatGrace(hb), nil
}
