// Package faultnet wraps net.Listener/net.Conn with a deterministic
// fault schedule, for chaos-testing the coordinator/worker protocol of
// distributed exploration. A wrapped listener applies one Fault per
// accepted connection, chosen by an arbitrary plan function - typically
// Seeded, which derives the whole schedule from one integer so a failing
// chaos run replays exactly.
//
// Faults model the ways real shard connections die: reset on accept (a
// daemon that crashes during the handshake), death after a fixed number
// of reads or writes (a daemon kill -9'd mid-run), death halfway through
// a write (a truncated frame on the wire), and per-operation delays (a
// congested or flaky link). The wrapper never reorders or corrupts
// delivered bytes, so every surviving byte stream is a legal prefix of
// the real one - exactly the failure surface reconnect-with-requeue must
// absorb.
package faultnet

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Fault is the failure schedule of one accepted connection. The zero
// value is a fault-free connection.
type Fault struct {
	// AcceptReset closes the connection immediately on accept, before
	// any byte moves: the coordinator sees a dial that succeeds and a
	// handshake that dies.
	AcceptReset bool
	// CloseAfterReads kills the connection after that many successful
	// Read calls (0 = never). The wire reads through a buffer, so one
	// Read may carry several frames or part of one: a count names no
	// frame, but small counts die inside the handshake and larger ones
	// mid-run.
	CloseAfterReads int
	// CloseAfterWrites kills the connection after that many successful
	// Write calls (0 = never).
	CloseAfterWrites int
	// MidWrite, with CloseAfterWrites, writes half of the fatal write's
	// buffer before dying, leaving a truncated frame on the peer's
	// stream instead of a clean cut.
	MidWrite bool
	// ReadDelay/WriteDelay pause before every Read/Write, simulating a
	// slow link (long enough delays trip the coordinator's heartbeat
	// grace and count as a death without any close).
	ReadDelay, WriteDelay time.Duration
}

// Plan chooses the Fault for the n-th accepted connection (0-based).
type Plan func(conn int) Fault

// Seeded derives a deterministic chaos plan from one seed: each of the
// first conns connections gets a random fault mix, and every connection
// after them is fault-free, so a run under any seed eventually heals and
// must terminate. The same seed always yields the same schedule.
func Seeded(seed int64, conns int) Plan {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, conns)
	for i := range faults {
		f := &faults[i]
		switch rng.Intn(4) {
		case 0:
			f.AcceptReset = true
		case 1:
			f.CloseAfterReads = 1 + rng.Intn(12)
		case 2:
			f.CloseAfterWrites = 1 + rng.Intn(12)
			f.MidWrite = rng.Intn(2) == 0
		case 3:
			f.CloseAfterReads = 4 + rng.Intn(12)
			f.WriteDelay = time.Duration(rng.Intn(3)) * time.Millisecond
		}
	}
	return func(conn int) Fault {
		if conn < len(faults) {
			return faults[conn]
		}
		return Fault{}
	}
}

// Listener wraps a net.Listener, applying plan to each accepted
// connection in accept order.
type Listener struct {
	net.Listener
	plan Plan

	mu    sync.Mutex
	conns int

	resets, reads, writes atomic.Int64
}

// Fired counts the faults that actually struck a listener's
// connections: a scheduled fault whose connection ended first never
// fires, so a chaos test reads these to know its schedule ran.
type Fired struct {
	// Resets, Reads and Writes count connections killed on accept, by
	// an exhausted read budget and by an exhausted write budget.
	Resets, Reads, Writes int
}

// Fired returns the faults struck so far.
func (l *Listener) Fired() Fired {
	return Fired{Resets: int(l.resets.Load()), Reads: int(l.reads.Load()), Writes: int(l.writes.Load())}
}

// Wrap returns ln with the fault plan applied per accepted connection.
// A nil plan accepts fault-free connections.
func Wrap(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

// Accepted returns how many connections have been accepted so far - the
// index the next connection's fault will be drawn at.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns
}

// Accept implements net.Listener. A connection whose fault is
// AcceptReset is closed before it is returned to the server loop; the
// server still sees it (and fails its handshake read), mirroring a peer
// that died between connect and hello.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	n := l.conns
	l.conns++
	l.mu.Unlock()
	var f Fault
	if l.plan != nil {
		f = l.plan(n)
	}
	fc := &Conn{Conn: nc, fault: f, ln: l}
	if f.AcceptReset {
		l.resets.Add(1)
		fc.kill()
	}
	return fc, nil
}

// Conn is one faulted connection. It satisfies net.Conn; reads and
// writes pass through until the schedule's budget expires, then the
// underlying connection is closed (both directions - TCP surfaces the
// close to the peer as EOF or a reset, exactly like a killed daemon).
type Conn struct {
	net.Conn
	fault Fault
	ln    *Listener

	mu     sync.Mutex
	reads  int
	writes int
	dead   bool
}

func (c *Conn) kill() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.Conn.Close()
}

// Read implements net.Conn, dying after the scheduled read budget.
func (c *Conn) Read(b []byte) (int, error) {
	if c.fault.ReadDelay > 0 {
		time.Sleep(c.fault.ReadDelay)
	}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	exhausted := c.fault.CloseAfterReads > 0 && c.reads >= c.fault.CloseAfterReads
	c.mu.Unlock()
	if exhausted {
		c.ln.reads.Add(1)
		c.kill()
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(b)
	if err == nil {
		c.mu.Lock()
		c.reads++
		c.mu.Unlock()
	}
	return n, err
}

// Write implements net.Conn, dying after the scheduled write budget -
// mid-buffer when MidWrite is set, so the peer sees a truncated frame.
func (c *Conn) Write(b []byte) (int, error) {
	if c.fault.WriteDelay > 0 {
		time.Sleep(c.fault.WriteDelay)
	}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	exhausted := c.fault.CloseAfterWrites > 0 && c.writes >= c.fault.CloseAfterWrites
	c.mu.Unlock()
	if exhausted {
		c.ln.writes.Add(1)
		if c.fault.MidWrite && len(b) > 1 {
			c.Conn.Write(b[:len(b)/2])
		}
		c.kill()
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Write(b)
	if err == nil {
		c.mu.Lock()
		c.writes++
		c.mu.Unlock()
	}
	return n, err
}
