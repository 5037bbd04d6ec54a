// The client side of the shared result store: Remote speaks the
// StoreGet/StorePut protocol to one store service and degrades every
// kind of transport trouble to a cache miss. The contract mirrors the
// on-disk store's: a Get either returns exactly the bytes the service
// holds or reports a miss - a dead service, a torn frame, a slow reply
// or a version-mismatched peer must never stall a fleet shard or
// corrupt a dataset, only cost it a recomputation.
//
// The discipline:
//
//   - One pipelined connection, lazily dialled. Requests carry IDs;
//     replies correlate through a pending table, so a shard's batched
//     lookups overlap on the wire.
//
//   - Every request is deadline-bounded. A reply slower than the
//     request timeout kills the connection (it is wedged or the link
//     is unusable) and the request degrades to a miss.
//
//   - A dead connection opens a backoff window; Gets and Puts inside
//     the window fast-miss without touching the network, so a killed
//     service costs each shard at most one timeout before the fleet
//     degrades to local tiers at full speed.
//
//   - A version-mismatched service (wire proto or dataset format) is
//     permanent: no redials, every request fast-misses, the typed
//     reason is kept for the shard's logs.
//
//   - Quarantine is client-side: a key whose payload failed owner-level
//     validation is never asked of this service again this session.
package store

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"portcc/internal/pcerr"
	"portcc/internal/wire"
)

// RemoteOptions configures a store-service client.
type RemoteOptions struct {
	// Addr is the service's TCP address (host:port).
	Addr string
	// Format is the application schema version for the handshake; it
	// must match the service's or the client stops permanently.
	Format int
	// DialTimeout bounds connect + handshake (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds one Get or Put round trip (default 2s); a
	// slower reply kills the connection and degrades to a miss.
	RequestTimeout time.Duration
	// RedialBackoff is the initial fast-miss window after a dead
	// connection or failed dial (default 250ms), doubling per
	// consecutive failure up to 8x.
	RedialBackoff time.Duration
}

func (o *RemoteOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 2 * time.Second
}

func (o *RemoteOptions) requestTimeout() time.Duration {
	if o.RequestTimeout > 0 {
		return o.RequestTimeout
	}
	return 2 * time.Second
}

func (o *RemoteOptions) redialBackoff() time.Duration {
	if o.RedialBackoff > 0 {
		return o.RedialBackoff
	}
	return 250 * time.Millisecond
}

var (
	errStoreBackoff = errors.New("store: remote backing off")
	errStoreClosed  = errors.New("store: remote closed")
	errStoreConn    = errors.New("store: remote connection died")
	errStoreTimeout = errors.New("store: remote reply timed out")
)

// Remote is a store-service client satisfying Backend. Safe for
// concurrent use; the zero value is not usable - construct with
// NewRemote.
type Remote struct {
	o  RemoteOptions
	id atomic.Uint64

	hits, misses, errs atomic.Int64
	puts, putErrs      atomic.Int64
	dials, dialFails   atomic.Int64

	mu        sync.Mutex
	cur       *remoteConn
	nextDial  time.Time
	backoff   time.Duration
	permanent error
	closed    bool
	poisoned  map[Key]bool
}

// remoteConn is one live connection's reply-correlation state.
type remoteConn struct {
	nc    net.Conn
	wc    *wire.Conn
	grace time.Duration

	mu      sync.Mutex
	dead    bool
	pending map[uint64]chan *wire.StoreReply
}

// NewRemote returns a client for the service at o.Addr. The connection
// is dialled lazily on first use; construction never touches the
// network, so a shard starts instantly with the service down and picks
// it up when it appears.
func NewRemote(o RemoteOptions) *Remote {
	return &Remote{o: o, poisoned: map[Key]bool{}}
}

// ensure returns the live connection, dialling if allowed. Inside a
// backoff window, after a version mismatch, or after Close it fails
// fast without touching the network.
func (r *Remote) ensure() (*remoteConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errStoreClosed
	}
	if r.permanent != nil {
		return nil, r.permanent
	}
	if r.cur != nil {
		return r.cur, nil
	}
	if time.Now().Before(r.nextDial) {
		return nil, errStoreBackoff
	}
	rc, err := r.dial()
	if err != nil {
		r.dialFails.Add(1)
		if errors.Is(err, pcerr.ErrWireVersion) || errors.Is(err, pcerr.ErrDatasetVersion) {
			// The peer is a different build: redialling cannot help.
			r.permanent = err
			return nil, err
		}
		if r.backoff < r.o.redialBackoff() {
			r.backoff = r.o.redialBackoff()
		} else if r.backoff *= 2; r.backoff > 8*r.o.redialBackoff() {
			r.backoff = 8 * r.o.redialBackoff()
		}
		r.nextDial = time.Now().Add(r.backoff)
		return nil, err
	}
	r.backoff = 0
	r.cur = rc
	go r.reader(rc)
	return rc, nil
}

// dial opens a handshaken connection (wire.Dial: connect and handshake
// under one deadline). Called with r.mu held (concurrent requests wait
// rather than racing duplicate dials).
func (r *Remote) dial() (*remoteConn, error) {
	r.dials.Add(1)
	nc, wc, grace, err := wire.Dial(context.Background(), r.o.Addr, r.o.Format, r.o.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", r.o.Addr, err)
	}
	return &remoteConn{nc: nc, wc: wc, grace: grace, pending: map[uint64]chan *wire.StoreReply{}}, nil
}

// reader is the connection's single receive loop: heartbeats reset the
// silence deadline, replies resolve pending requests, anything else -
// including the deadline itself - declares the connection dead.
func (r *Remote) reader(rc *remoteConn) {
	defer r.drop(rc)
	for {
		rc.nc.SetReadDeadline(time.Now().Add(rc.grace))
		f, err := rc.wc.Recv()
		if err != nil {
			return
		}
		switch {
		case f.Heartbeat:
		case f.StoreReply != nil:
			rc.deliver(f.StoreReply)
		default:
			return
		}
	}
}

// deliver hands one reply to its waiting request, dropping replies
// whose request already timed out.
func (rc *remoteConn) deliver(reply *wire.StoreReply) {
	rc.mu.Lock()
	ch := rc.pending[reply.ID]
	delete(rc.pending, reply.ID)
	rc.mu.Unlock()
	if ch != nil {
		ch <- reply
	}
}

// drop tears a connection down: fail every pending request, close the
// socket, clear the client's current-connection slot and open the
// backoff window. Idempotent - the reader, a timed-out request and
// Close may all race here.
func (r *Remote) drop(rc *remoteConn) {
	rc.mu.Lock()
	already := rc.dead
	rc.dead = true
	pending := rc.pending
	rc.pending = nil
	rc.mu.Unlock()
	if already {
		return
	}
	for _, ch := range pending {
		close(ch)
	}
	rc.nc.Close()
	r.mu.Lock()
	if r.cur == rc {
		r.cur = nil
		if r.backoff == 0 {
			r.backoff = r.o.redialBackoff()
		}
		r.nextDial = time.Now().Add(r.backoff)
	}
	r.mu.Unlock()
}

// request sends one frame and awaits its correlated reply, bounded by
// the request timeout. Timeout or connection death degrade to an error
// the callers absorb as a miss.
func (r *Remote) request(rc *remoteConn, id uint64, f *wire.Frame) (*wire.StoreReply, error) {
	ch := make(chan *wire.StoreReply, 1)
	rc.mu.Lock()
	if rc.dead {
		rc.mu.Unlock()
		return nil, errStoreConn
	}
	rc.pending[id] = ch
	rc.mu.Unlock()
	if err := rc.wc.Send(f); err != nil {
		r.drop(rc)
		return nil, fmt.Errorf("store: %s: send: %w", r.o.Addr, err)
	}
	t := time.NewTimer(r.o.requestTimeout())
	defer t.Stop()
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, errStoreConn
		}
		return reply, nil
	case <-t.C:
		// A reply this slow means a wedged service or an unusable
		// link: kill the connection so every queued request fails fast
		// and the fleet degrades to local tiers instead of crawling.
		r.drop(rc)
		return nil, errStoreTimeout
	}
}

// Get asks the service for k. Every failure mode - backoff window,
// dead connection, torn frame, slow reply, service-side corruption -
// returns a clean miss; only the counters tell them apart.
func (r *Remote) Get(k Key) ([]byte, bool, error) {
	r.mu.Lock()
	poisoned := r.poisoned[k]
	r.mu.Unlock()
	if poisoned {
		r.misses.Add(1)
		return nil, false, nil
	}
	rc, err := r.ensure()
	if err != nil {
		r.errs.Add(1)
		return nil, false, nil
	}
	id := r.id.Add(1)
	reply, err := r.request(rc, id, &wire.Frame{StoreGet: &wire.StoreGet{ID: id, Key: [32]byte(k)}})
	if err != nil {
		r.errs.Add(1)
		return nil, false, nil
	}
	switch {
	case reply.Err != "":
		r.errs.Add(1)
		return nil, false, nil
	case !reply.Found:
		r.misses.Add(1)
		return nil, false, nil
	}
	r.hits.Add(1)
	return reply.Payload, true, nil
}

// Put offers k to the service and waits for the acknowledgement (a
// later fleet shard's Get must be able to trust a returned Put). A
// lost commit returns an error the caller absorbs - the entry is
// simply not shared.
func (r *Remote) Put(k Key, payload []byte) error {
	rc, err := r.ensure()
	if err != nil {
		r.putErrs.Add(1)
		return fmt.Errorf("store: remote put %s: %w", k.String()[:12], err)
	}
	id := r.id.Add(1)
	reply, err := r.request(rc, id, &wire.Frame{StorePut: &wire.StorePut{ID: id, Key: [32]byte(k), Payload: payload}})
	if err != nil {
		r.putErrs.Add(1)
		return fmt.Errorf("store: remote put %s: %w", k.String()[:12], err)
	}
	if reply.Err != "" || !reply.Found {
		r.putErrs.Add(1)
		return fmt.Errorf("store: remote put %s: service: %s", k.String()[:12], reply.Err)
	}
	r.puts.Add(1)
	return nil
}

// Quarantine retires k client-side: the service's copy failed
// owner-level validation, so this session never asks for it again.
// (The service quarantines its own copy when its disk read rots; a
// content-key collision or codec bug is indistinguishable from that
// here, and recompute wins either way.)
func (r *Remote) Quarantine(k Key, reason error) error {
	r.mu.Lock()
	r.poisoned[k] = true
	r.mu.Unlock()
	return fmt.Errorf("store: remote entry %s: %w: %v", k.String()[:12], pcerr.ErrStoreCorrupt, reason)
}

// Stats returns the client-side ledger. The top-level Hits/Misses
// mirror the Remote* detail so a Remote used directly as a Backend
// reports like any other.
func (r *Remote) Stats() Stats {
	hits, misses, errs := r.hits.Load(), r.misses.Load(), r.errs.Load()
	puts, putErrs := r.puts.Load(), r.putErrs.Load()
	return Stats{
		Hits:            hits,
		Misses:          misses + errs,
		Puts:            puts,
		PutErrors:       putErrs,
		RemoteHits:      hits,
		RemoteMisses:    misses,
		RemoteErrors:    errs,
		RemotePuts:      puts,
		RemotePutErrors: putErrs,
	}
}

// Close hangs up and stops all future dials. Requests in flight
// degrade to misses.
func (r *Remote) Close() error {
	r.mu.Lock()
	r.closed = true
	rc := r.cur
	r.cur = nil
	r.mu.Unlock()
	if rc != nil {
		r.drop(rc)
	}
	return nil
}
