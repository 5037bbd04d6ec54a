// Chaos suite for the shared store service: every transport failure
// mode - dead service, torn frames, slow replies, version skew - must
// degrade remote lookups to clean misses, bounded in time, with the
// tiered client falling back to its local directory. Nothing here may
// stall and nothing may return wrong bytes.
package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"portcc/internal/faultnet"
	"portcc/internal/wire"
)

// testService runs one Service on a loopback listener for a test.
type testService struct {
	sv       *Service
	addr     string
	cancel   context.CancelFunc
	done     chan error
	stopOnce sync.Once
}

// startServiceLn serves b on ln until the test ends or stop is called.
func startServiceLn(t *testing.T, b Backend, cfg ServiceConfig, ln net.Listener) *testService {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testService{
		sv:     NewService(b, cfg),
		addr:   ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { ts.done <- ts.sv.Serve(ctx, ln) }()
	t.Cleanup(ts.stop)
	return ts
}

func startService(t *testing.T, b Backend, cfg ServiceConfig) *testService {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServiceLn(t, b, cfg, ln)
}

// stop hard-stops the service and waits for Serve to return. Safe to
// call twice (tests stop explicitly, Cleanup stops again).
func (ts *testService) stop() {
	ts.stopOnce.Do(func() {
		ts.cancel()
		select {
		case <-ts.done:
		case <-time.After(5 * time.Second):
		}
	})
}

// fastOpts are client timeouts tuned so a whole degradation cycle fits
// inside a test: everything bounded well under a second.
func fastOpts(addr string, format int) RemoteOptions {
	return RemoteOptions{
		Addr:           addr,
		Format:         format,
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: 500 * time.Millisecond,
		RedialBackoff:  50 * time.Millisecond,
	}
}

// TestServiceGetPutRoundTrip: the basic fleet exchange - one shard
// Puts, another Gets the exact bytes; unknown keys miss cleanly; both
// sides' ledgers agree.
func TestServiceGetPutRoundTrip(t *testing.T) {
	ts := startService(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7})

	a := NewRemote(fastOpts(ts.addr, 7))
	defer a.Close()
	b := NewRemote(fastOpts(ts.addr, 7))
	defer b.Close()

	if _, ok, err := a.Get(keyN(1)); ok || err != nil {
		t.Fatalf("empty service get: ok=%v err=%v", ok, err)
	}
	if err := a.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatalf("put: %v", err)
	}
	for name, c := range map[string]*Remote{"same": a, "other": b} {
		got, ok, err := c.Get(keyN(1))
		if !ok || err != nil {
			t.Fatalf("%s client get: ok=%v err=%v", name, ok, err)
		}
		if !bytes.Equal(got, payloadN(1)) {
			t.Fatalf("%s client: wrong bytes", name)
		}
	}
	if st := a.Stats(); st.RemoteHits != 1 || st.RemoteMisses != 1 || st.RemotePuts != 1 || st.RemoteErrors != 0 {
		t.Errorf("client ledger: %+v", st)
	}
	if st := ts.sv.Stats(); st.Gets != 3 || st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Conns != 2 {
		t.Errorf("service ledger: %+v", st)
	}
}

// TestServiceVersionMismatch: a shard built against another dataset
// schema is refused in the handshake, degrades every lookup to a miss,
// and never dials again - version skew is permanent, not a retry loop.
func TestServiceVersionMismatch(t *testing.T) {
	ts := startService(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7})

	r := NewRemote(fastOpts(ts.addr, 8))
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, ok, err := r.Get(keyN(i)); ok || err != nil {
			t.Fatalf("mismatched get %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := r.dials.Load(); got != 1 {
		t.Errorf("mismatched client dialled %d times, want exactly 1", got)
	}
	if st := r.Stats(); st.RemoteErrors != 5 {
		t.Errorf("want 5 degraded requests, got %+v", st)
	}
}

// TestRemoteServiceDownFastMiss: with nothing listening, lookups must
// degrade to misses at fast-miss speed - one refused dial opens the
// backoff window and the rest never touch the network.
func TestRemoteServiceDownFastMiss(t *testing.T) {
	// A listener bound and closed: the port is real but refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	r := NewRemote(fastOpts(addr, 7))
	defer r.Close()
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, ok, _ := r.Get(keyN(i)); ok {
			t.Fatal("hit against a dead service")
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("20 degraded gets took %v - the dead service is stalling the shard", elapsed)
	}
	if dials := r.dials.Load(); dials > 3 {
		t.Errorf("dead service dialled %d times in one burst, want backoff", dials)
	}
	if st := r.Stats(); st.RemoteErrors != 20 {
		t.Errorf("want 20 degraded requests, got %+v", st)
	}
}

// TestRemoteReconnectsAfterRestart: a SIGKILLed service costs misses
// while it is down, and a restarted one is picked up through the
// backoff redial - no client restart, no stall, and the shared entries
// serve again.
func TestRemoteReconnectsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ts := startService(t, mustOpen(t, Options{Dir: dir}), ServiceConfig{Format: 7})
	addr := ts.addr

	r := NewRemote(fastOpts(addr, 7))
	defer r.Close()
	if err := r.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}

	ts.stop() // the kill: connection dies, nothing listens

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok, _ := r.Get(keyN(1)); !ok {
			break // degraded to a miss
		}
		if time.Now().After(deadline) {
			t.Fatal("client kept hitting a killed service")
		}
	}

	// Restart on the same address (a supervisor restart).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	startServiceLn(t, mustOpen(t, Options{Dir: dir}), ServiceConfig{Format: 7}, ln)

	deadline = time.Now().Add(5 * time.Second)
	for {
		got, ok, err := r.Get(keyN(1))
		if ok {
			if err != nil || !bytes.Equal(got, payloadN(1)) {
				t.Fatalf("reconnected get: err=%v, wrong bytes=%v", err, !bytes.Equal(got, payloadN(1)))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the restarted service")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServiceTornFrames: connections that die mid-write (truncated
// frames on the client's stream) degrade the requests they carried to
// misses; once the schedule heals, the same client serves hits again.
func TestServiceTornFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The first three connections die mid-write inside their first
	// reply; every connection after them is clean. A frame is one write,
	// so the handshake reply is write 1 and the first reply write 2,
	// whichever request it answers: the first Put commits service-side
	// before its acknowledgement tears, so any later reply that got
	// through could be the hit that ends the loop before all three
	// faults have fired.
	fln := faultnet.Wrap(ln, func(conn int) faultnet.Fault {
		if conn < 3 {
			return faultnet.Fault{CloseAfterWrites: 1, MidWrite: true}
		}
		return faultnet.Fault{}
	})
	ts := startServiceLn(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7}, fln)

	r := NewRemote(fastOpts(ts.addr, 7))
	defer r.Close()
	r.Put(keyN(1), payloadN(1)) // may or may not survive the chaos

	deadline := time.Now().Add(10 * time.Second)
	for {
		r.Put(keyN(1), payloadN(1))
		got, ok, err := r.Get(keyN(1))
		if ok {
			if err != nil || !bytes.Equal(got, payloadN(1)) {
				t.Fatalf("healed get: err=%v wrong bytes=%v", err, !bytes.Equal(got, payloadN(1)))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never healed past the torn-frame schedule")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fln.Accepted() < 4 {
		t.Errorf("healed after %d connections - the torn schedule never ran", fln.Accepted())
	}
}

// TestServiceSlowReplies: a service whose replies crawl slower than
// the request timeout must cost a bounded timeout and a reconnect, not
// a stalled shard.
func TestServiceSlowReplies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Connection 0's writes each stall 150ms - the handshake squeaks
	// through the generous dial deadline, then every reply overshoots
	// the 100ms request timeout. Connection 1 onward is healthy.
	fln := faultnet.Wrap(ln, func(conn int) faultnet.Fault {
		if conn == 0 {
			return faultnet.Fault{WriteDelay: 150 * time.Millisecond}
		}
		return faultnet.Fault{}
	})
	ts := startServiceLn(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7}, fln)

	o := fastOpts(ts.addr, 7)
	o.DialTimeout = 2 * time.Second
	o.RequestTimeout = 100 * time.Millisecond
	r := NewRemote(o)
	defer r.Close()

	start := time.Now()
	_, ok, _ := r.Get(keyN(1))
	if ok {
		t.Fatal("slow service answered within the timeout window")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("slow reply stalled the shard for %v", elapsed)
	}
	// The wedged connection was killed; the healthy redial serves.
	r.Put(keyN(1), payloadN(1))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := r.Get(keyN(1)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered from the slow connection")
		}
		r.Put(keyN(1), payloadN(1))
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTieredWriteBack: a remote hit lands in the local tier, so the
// service is consulted once per key - kill it afterwards and the shard
// still serves the entry locally.
func TestTieredWriteBack(t *testing.T) {
	svcDir := t.TempDir()
	ts := startService(t, mustOpen(t, Options{Dir: svcDir}), ServiceConfig{Format: 7})

	seed := NewRemote(fastOpts(ts.addr, 7))
	if err := seed.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	local := mustOpen(t, Options{Dir: t.TempDir()})
	tiered := NewTiered(local, NewRemote(fastOpts(ts.addr, 7)))
	defer tiered.Close()

	got, ok, err := tiered.Get(keyN(1))
	if !ok || err != nil || !bytes.Equal(got, payloadN(1)) {
		t.Fatalf("tiered remote get: ok=%v err=%v", ok, err)
	}

	ts.stop() // service gone; the write-back must carry the key

	got, ok, err = tiered.Get(keyN(1))
	if !ok || err != nil || !bytes.Equal(got, payloadN(1)) {
		t.Fatalf("tiered local get after service death: ok=%v err=%v", ok, err)
	}
	st := tiered.Stats()
	if st.RemoteHits != 1 {
		t.Errorf("want exactly one remote hit (write-back), got %+v", st)
	}
	if st.Hits != 2 {
		t.Errorf("want 2 tiered hits, got %+v", st)
	}
}

// TestTieredPutReachesBothTiers: a shard's Put serves later Gets both
// from its own directory and from the rest of the fleet.
func TestTieredPutReachesBothTiers(t *testing.T) {
	svcStore := mustOpen(t, Options{Dir: t.TempDir()})
	ts := startService(t, svcStore, ServiceConfig{Format: 7})

	local := mustOpen(t, Options{Dir: t.TempDir()})
	tiered := NewTiered(local, NewRemote(fastOpts(ts.addr, 7)))
	defer tiered.Close()
	if err := tiered.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}

	if _, ok, _ := local.Get(keyN(1)); !ok {
		t.Error("put missed the local tier")
	}
	if _, ok, _ := svcStore.Get(keyN(1)); !ok {
		t.Error("put missed the service")
	}
	other := NewRemote(fastOpts(ts.addr, 7))
	defer other.Close()
	if got, ok, _ := other.Get(keyN(1)); !ok || !bytes.Equal(got, payloadN(1)) {
		t.Error("another shard cannot read the shared entry")
	}
}

// TestTieredRemoteOnly: a shard with no cache directory leans on the
// service alone - its backend is the Remote, no Tiered around it - and
// still degrades cleanly when the service dies.
func TestTieredRemoteOnly(t *testing.T) {
	ts := startService(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7})

	remote := NewRemote(fastOpts(ts.addr, 7))
	defer remote.Close()
	if err := remote.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := remote.Get(keyN(1)); !ok || err != nil || !bytes.Equal(got, payloadN(1)) {
		t.Fatalf("remote-only get: ok=%v err=%v", ok, err)
	}
	if st := remote.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Errorf("remote-only ledger: %+v", st)
	}
	ts.stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok, err := remote.Get(keyN(1)); !ok {
			if err != nil {
				t.Fatalf("degraded get returned error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote-only tier kept hitting a dead service")
		}
	}
}

// TestServiceDrain: closing Drain stops the accept loop and returns
// from Serve while clients degrade to their local tiers.
func TestServiceDrain(t *testing.T) {
	drain := make(chan struct{})
	ts := startService(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7, Drain: drain})

	r := NewRemote(fastOpts(ts.addr, 7))
	defer r.Close()
	if err := r.Put(keyN(1), payloadN(1)); err != nil {
		t.Fatal(err)
	}
	close(drain)
	select {
	case err := <-ts.done:
		if err != nil {
			t.Fatalf("drained serve returned %v", err)
		}
		ts.done <- nil // refill for the cleanup stop
	case <-time.After(5 * time.Second):
		t.Fatal("drained service never returned")
	}
}

// TestServiceMutePeerIsDropped: the service runs on wire.Server, so a
// peer that connects and never speaks is hung up on once the handshake
// window passes - it is never counted as a connection, and it does not
// pin a goroutine and an fd for the service's life.
func TestServiceMutePeerIsDropped(t *testing.T) {
	ts := startService(t, mustOpen(t, Options{Dir: t.TempDir()}),
		ServiceConfig{Format: 7, Heartbeat: 20 * time.Millisecond})
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("mute client read %v, want EOF from the service's handshake deadline", err)
	}
	if n := ts.sv.Stats().Conns; n != 0 {
		t.Errorf("%d connections counted for a peer that never handshook, want 0", n)
	}
}

// TestServiceSeededChaos drives a client through a seeded fault
// schedule: whatever the faults do, every Get must return either a
// clean miss or the exact bytes of the key's Put, bounded in time. The
// service reads through a buffer, so a read budget counts reads, not
// frames; the schedules must still strike the reads.
func TestServiceSeededChaos(t *testing.T) {
	var fired faultnet.Fired
	defer func() {
		t.Logf("faults struck over the seeds: %+v", fired)
		if fired.Reads == 0 {
			t.Error("no read fault struck: the schedules no longer reach the service's reads")
		}
	}()
	for _, seed := range []int64{1, 7, 42} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fln := faultnet.Wrap(ln, faultnet.Seeded(seed, 5))
		ts := startServiceLn(t, mustOpen(t, Options{Dir: t.TempDir()}), ServiceConfig{Format: 7}, fln)

		o := fastOpts(ts.addr, 7)
		o.RequestTimeout = 200 * time.Millisecond
		o.RedialBackoff = 10 * time.Millisecond
		r := NewRemote(o)

		start := time.Now()
		hits := 0
		for i := 0; i < 60; i++ {
			k := i % 8
			r.Put(keyN(k), payloadN(k))
			got, ok, err := r.Get(keyN(k))
			if err != nil {
				t.Fatalf("seed %d: get returned error: %v", seed, err)
			}
			if ok {
				hits++
				if !bytes.Equal(got, payloadN(k)) {
					t.Fatalf("seed %d: wrong bytes under chaos", seed)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		if hits == 0 {
			t.Errorf("seed %d: schedule heals after 5 conns but no get ever hit", seed)
		}
		if elapsed := time.Since(start); elapsed > 60*time.Second {
			t.Errorf("seed %d: chaos run stalled: %v", seed, elapsed)
		}
		r.Close()
		ts.stop()
		f := fln.Fired()
		fired.Resets += f.Resets
		fired.Reads += f.Reads
		fired.Writes += f.Writes
	}
}

// TestRemoteOversizeReplyIsMiss: a service that answers with a header
// claiming a 1 GiB frame is dropped like a dead one - the claim is
// refused before any body is read - and the Get degrades to a clean
// miss inside the request timeout instead of waiting for the gigabyte.
func TestRemoteOversizeReplyIsMiss(t *testing.T) {
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
		if conn.ServerHello(7, time.Second) != nil {
			return
		}
		if f, err := conn.Recv(); err != nil || f.StoreGet == nil {
			return
		}
		nc.Write(append(binary.BigEndian.AppendUint32(nil, 1<<30), 11))
		io.Copy(io.Discard, nc)
	}()

	o := fastOpts(ln.Addr().String(), 7)
	o.RequestTimeout = 5 * time.Second
	r := NewRemote(o)
	defer r.Close()
	start := time.Now()
	if _, ok, err := r.Get(keyN(1)); ok || err != nil {
		t.Fatalf("get over an oversize reply: ok=%v err=%v, want a clean miss", ok, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("the oversize reply cost %v: the client waited instead of dropping", elapsed)
	}
	if s := r.Stats(); s.RemoteErrors != 1 {
		t.Errorf("stats %+v, want the one degraded get", s)
	}
}
