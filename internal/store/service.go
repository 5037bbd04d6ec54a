// The service side of the shared result store: a handler on the
// wire.Server accept loop (the one the job daemon runs on) that exposes
// one Backend (normally a plain *Store directory) to a fleet of remote
// clients over the wire protocol. One portccsd process owns the
// directory; every shard's Remote client (alone, or the remote tier of
// its Tiered backend) queries it before recomputing a cell, so a
// fleet's duplicate replays collapse into one computation.
//
// The protocol per connection: version handshake (by wire.Server,
// exactly like the job protocol - mismatched builds are refused typed),
// then pipelined StoreGet/StorePut frames, each answered by exactly one
// StoreReply correlated by request ID. Replies interleave freely with
// heartbeats and with each other; a bounded per-connection worker pool
// keeps one slow disk read from serialising the stream behind it.
//
// Failure semantics mirror the store's own: a corrupt entry is
// quarantined service-side and answered as a miss with Err set, a
// failed Put is acknowledged with Err set - the client degrades, the
// connection survives. Only transport death ends a connection, and the
// client redials.
package store

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/wire"
)

// ServiceConfig configures a store service loop.
type ServiceConfig struct {
	// Format is the application schema version announced in the
	// handshake (for the result-store fleet, dataset.FormatVersion):
	// clients built against another schema are refused typed rather
	// than silently missing on every key.
	Format int
	// Heartbeat is the period at which quiet connections prove the
	// service alive (default 1s); clients treat a few missed beats as a
	// dead service and degrade to their local tier.
	Heartbeat time.Duration
	// Drain, when closed, drains the loop gracefully: stop accepting,
	// answer in-flight requests, then close. Clients degrade to local.
	Drain <-chan struct{}
	// Logf, when set, receives one line per connection event.
	Logf func(format string, args ...any)
}

// serviceInflight bounds concurrently served requests per connection:
// enough to pipeline a fleet shard's batch, bounded so one client cannot
// queue unbounded disk work.
const serviceInflight = 16

// ServiceStats is the daemon-side ledger of a store service, readable
// concurrently while serving.
type ServiceStats struct {
	// Conns counts accepted connections that passed the handshake.
	Conns int64
	// Gets/Hits/Misses count StoreGet requests and their outcomes;
	// GetErrors counts Gets degraded by a corrupt or unreadable entry
	// (quarantined, answered as a miss with the reason attached).
	Gets, Hits, Misses, GetErrors int64
	// Puts counts StorePut requests committed; PutErrors the commits
	// refused by the disk (the client's entry stays uncached).
	Puts, PutErrors int64
}

// Service serves one Backend to remote store clients.
type Service struct {
	backend Backend
	cfg     ServiceConfig

	conns, gets, hits, misses, getErrors atomic.Int64
	puts, putErrors                      atomic.Int64
}

// NewService wraps a backend for serving. The service borrows the
// backend: Close stays the caller's job, after Serve returns.
func NewService(b Backend, cfg ServiceConfig) *Service {
	return &Service{backend: b, cfg: cfg}
}

// Stats returns the request counters.
func (sv *Service) Stats() ServiceStats {
	return ServiceStats{
		Conns:     sv.conns.Load(),
		Gets:      sv.gets.Load(),
		Hits:      sv.hits.Load(),
		Misses:    sv.misses.Load(),
		GetErrors: sv.getErrors.Load(),
		Puts:      sv.puts.Load(),
		PutErrors: sv.putErrors.Load(),
	}
}

// Serve runs the service on ln until ctx is cancelled (hard stop) or
// cfg.Drain is closed (graceful: in-flight requests are answered
// first), then blocks until every connection has exited. The listener
// is closed on return.
func (sv *Service) Serve(ctx context.Context, ln net.Listener) error {
	srv := wire.Server{Format: sv.cfg.Format, Heartbeat: sv.cfg.Heartbeat, Drain: sv.cfg.Drain, Logf: sv.logf}
	return srv.Serve(ctx, ln, sv.serveConn)
}

func (sv *Service) logf(format string, args ...any) {
	if sv.cfg.Logf != nil {
		sv.cfg.Logf("store-serve: "+format, args...)
	}
}

// serveConn handles one handshaken client connection: pipelined store
// requests until the client hangs up, the context hard-stops, or a
// drain pokes the idle read while in-flight replies finish.
func (sv *Service) serveConn(_ context.Context, conn *wire.Conn, peer string) {
	sv.conns.Add(1)
	// In-flight requests answer from their own goroutines, bounded by
	// the semaphore; the read loop stays single-reader. A failed reply
	// send means the client is gone - the next Recv fails and the
	// handler unwinds after the workers do.
	sem := make(chan struct{}, serviceInflight)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		var reply func() *wire.StoreReply
		switch {
		case f.StoreGet != nil:
			g := f.StoreGet
			reply = func() *wire.StoreReply { return sv.answerGet(g) }
		case f.StorePut != nil:
			p := f.StorePut
			reply = func() *wire.StoreReply { return sv.answerPut(p) }
		case f.Heartbeat:
			continue
		default:
			sv.logf("%s: unexpected %s frame", peer, f.Kind())
			return
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			conn.Send(&wire.Frame{StoreReply: reply()})
		}()
	}
}

// answerGet resolves one StoreGet against the backend. Corruption is
// already quarantined by the backend when the error comes back typed;
// the client sees a miss either way and recomputes.
func (sv *Service) answerGet(g *wire.StoreGet) *wire.StoreReply {
	sv.gets.Add(1)
	payload, ok, err := sv.backend.Get(Key(g.Key))
	switch {
	case err != nil:
		sv.getErrors.Add(1)
		return &wire.StoreReply{ID: g.ID, Err: err.Error()}
	case !ok:
		sv.misses.Add(1)
		return &wire.StoreReply{ID: g.ID}
	}
	sv.hits.Add(1)
	return &wire.StoreReply{ID: g.ID, Found: true, Payload: payload}
}

// answerPut commits one StorePut. A refused commit (full disk, dead
// device) is acknowledged with Err: degraded to an uncached entry, the
// connection and the rest of the fleet's traffic unharmed.
func (sv *Service) answerPut(p *wire.StorePut) *wire.StoreReply {
	if err := sv.backend.Put(Key(p.Key), p.Payload); err != nil {
		sv.putErrors.Add(1)
		return &wire.StoreReply{ID: p.ID, Err: err.Error()}
	}
	sv.puts.Add(1)
	return &wire.StoreReply{ID: p.ID, Found: true}
}
