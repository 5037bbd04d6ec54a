// The remote executor: cells ship to portccd worker shards as wire
// frames over TCP. Each shard connection is one goroutine that repeatedly takes
// a chunk of the lowest pending cell indices from a shared dispenser,
// assigns it, and streams the results back. A connection that dies (dial
// failure, version mismatch, connection error, missed heartbeats) has
// its unresolved cells requeued onto the survivors immediately, and the
// shard's goroutine redials with seeded exponential backoff instead of
// exiting - so daemon restarts and network blips are absorbed mid-run,
// and a restarted daemon rejoins the same run. Only when every shard has
// burned its full retry budget with cells still unfinished does Execute
// report a shard error. A cell that repeatedly rides dying connections
// is quarantined as poisoned (it is the prime suspect for crashing the
// daemons) and surfaces as a typed failure at its own index, preserving
// the lowest-index-error contract instead of looping under reconnect.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"portcc/internal/pcerr"
	"portcc/internal/wire"
)

// RetryPolicy governs how a Remote coordinator treats dying shard
// connections: how often each shard address is redialled, how redials
// back off, and when a repeatedly stranded cell is quarantined. The zero
// value selects the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed connections a
	// shard address is allowed before the shard is abandoned for the
	// rest of the run (default 3). A connection that resolves at least
	// one cell refreshes the budget, so a daemon restarted in a loop is
	// absorbed for as long as it keeps making progress; permanent
	// failures (version mismatches, refused jobs) are never retried.
	MaxAttempts int
	// BaseBackoff is the delay before the first redial (default 100ms);
	// it doubles per consecutive failure up to MaxBackoff (default 5s),
	// with seeded jitter in [d/2, d] so shards desynchronise their
	// redials deterministically.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxStrands is the number of times one cell may be stranded by a
	// dying connection before the coordinator quarantines it as poisoned
	// (default 5): the cell then surfaces as a pcerr.ErrCellPoisoned
	// failure at its own grid index instead of crashing daemons forever.
	MaxStrands int
	// Seed seeds the backoff jitter (deterministic per shard index), so
	// fault-injection tests replay identically.
	Seed int64
}

// withDefaults resolves the zero value to the documented defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.MaxStrands <= 0 {
		p.MaxStrands = 5
	}
	return p
}

// backoffDelay sizes the pause before redial attempt+1: exponential from
// BaseBackoff, capped at MaxBackoff, jittered into [d/2, d] by the
// shard's seeded generator.
func backoffDelay(pol RetryPolicy, rng *rand.Rand, attempt int) time.Duration {
	d := pol.BaseBackoff
	for i := 1; i < attempt && d < pol.MaxBackoff; i++ {
		d *= 2
	}
	if d > pol.MaxBackoff {
		d = pol.MaxBackoff
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// Remote executes a job's cells on worker daemons (cmd/portccd, or any
// Serve loop) reached over TCP.
type Remote struct {
	// Addrs are the shard addresses (host:port). At least one is
	// required; cells from a dead shard requeue onto the others.
	Addrs []string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// Retry is the reconnect/backoff/quarantine policy (zero value =
	// defaults; see RetryPolicy).
	Retry RetryPolicy
}

// chunkSize caps the cells assigned to a shard per round trip: larger
// chunks amortise the round trip and feed the shard's pool, smaller ones
// lose less work when a shard dies. The cap applies mid-run; near the
// tail of the grid the dispenser shrinks assignments toward single cells
// (see adaptChunk), so a shard dying at the tail loses less work and the
// last cells spread across every live shard instead of queueing behind
// one.
const chunkSize = 8

func (r *Remote) dialTimeout() time.Duration {
	if r.DialTimeout > 0 {
		return r.DialTimeout
	}
	return 5 * time.Second
}

// Execute implements Executor. Cell dispatch is in index order across
// the shard set; the error contract matches Local's exactly (lowest-
// indexed cell failure, cancellation left to the caller's ctx check),
// with two additions: if every shard burns its retry budget with cells
// unfinished, the returned error wraps pcerr.ErrShardFailure and the
// last shard's cause; and a cell stranded by too many dying connections
// fails typed with pcerr.ErrCellPoisoned at its own index.
func (r *Remote) Execute(ctx context.Context, job Job, emit func(index int, payload any)) (int, error) {
	if len(r.Addrs) == 0 {
		return 0, fmt.Errorf("sched: %w: no shard addresses", pcerr.ErrInvalidConfig)
	}
	if job.Spec == nil {
		return 0, fmt.Errorf("sched: %w: a remote job needs a spec", pcerr.ErrInvalidConfig)
	}
	pol := r.Retry.withDefaults()
	st := newRemoteState(job.Cells, len(r.Addrs), pol.MaxStrands)
	// A cancelled coordinator must not sit out a heartbeat window: wake
	// dispenser waiters immediately (blocked reads are poked per
	// connection below).
	stop := context.AfterFunc(ctx, st.wake)
	defer stop()
	var wg sync.WaitGroup
	for i, addr := range r.Addrs {
		wg.Add(1)
		go func(shard int, addr string) {
			defer wg.Done()
			r.shardLoop(ctx, st, pol, shard, addr, job, emit)
		}(i, addr)
	}
	wg.Wait()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failErr != nil {
		return st.done, st.failErr
	}
	if ctx.Err() != nil {
		// Shards torn down by our own cancellation are not failures.
		return st.done, nil
	}
	return st.done, st.exhausted
}

// shardLoop drives one shard address for the lifetime of the run:
// serveShard until it dies, requeue the stranded cells so survivors can
// take them, back off, redial. The loop ends on a clean grid finish,
// cancellation, a permanent error (version mismatch, refused job), or
// an exhausted retry budget - only then does the shard count as gone.
func (r *Remote) shardLoop(ctx context.Context, st *remoteState, pol RetryPolicy, shard int, addr string, job Job, emit func(int, any)) {
	// Per-shard jitter stream: deterministic under a fixed Seed, distinct
	// across shards so their redials spread out.
	rng := rand.New(rand.NewSource(pol.Seed ^ (int64(shard)+1)*0x6A09E667F3BCC909))
	attempts := 0
	for {
		lost, progressed, err := r.serveShard(ctx, st, addr, job, emit)
		if err == nil {
			st.shardExit(nil, nil)
			return
		}
		if progressed {
			// The address demonstrably hosts a live daemon: refresh the
			// budget so a restart loop is absorbed for as long as the
			// shard keeps resolving cells.
			attempts = 0
		}
		attempts++
		if ctx.Err() != nil || attempts >= pol.MaxAttempts || permanentShardErr(err) {
			st.shardExit(lost, err)
			return
		}
		// Requeue before sleeping: survivors drain the stranded cells
		// while this shard backs off, and the stranding counts toward
		// poison-cell quarantine.
		st.strand(lost)
		if !st.sleep(ctx, backoffDelay(pol, rng, attempts)) {
			// Cancelled or the grid finished without us: nothing to
			// requeue, but the exit must still balance the live count.
			st.shardExit(nil, err)
			return
		}
	}
}

// permanentShardErr reports errors no redial can fix: a shard built
// against another protocol or dataset schema, a refused job, or a peer
// that violated the exchange after a successful handshake (an unexpected
// frame kind, a result its job's Decode rejects). A malformed frame is
// not on the list: like a torn one, it ends only its connection.
func permanentShardErr(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe) ||
		errors.Is(err, pcerr.ErrWireVersion) ||
		errors.Is(err, pcerr.ErrDatasetVersion)
}

// permanentError marks a shard failure as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

func (e *permanentError) Unwrap() error { return e.err }

// serveShard drives one shard connection until the grid is finished, the
// context is cancelled, or the connection dies. It returns the cells it
// had taken but not resolved (for requeueing), whether the connection
// resolved any cell at all (progress refreshes the retry budget), and
// the connection's terminal error, nil for a clean finish.
func (r *Remote) serveShard(ctx context.Context, st *remoteState, addr string, job Job, emit func(int, any)) (lostCells []int, progressed bool, err error) {
	// A wedged-but-connected peer (accepts TCP, never speaks) must not
	// hang the run: wire.Dial bounds the handshake like the dial, and
	// every blocking operation after it carries a deadline, so a shard
	// goroutine always terminates and requeues its cells. grace is the
	// window a live shard proves itself in, by a result or a heartbeat,
	// even when its cells run long.
	nc, conn, grace, err := wire.Dial(ctx, addr, job.Format, r.dialTimeout())
	if err != nil {
		return nil, false, fmt.Errorf("sched: shard %s: %w", addr, err)
	}
	defer nc.Close()
	// Cancellation pokes any blocked read or write on this connection.
	// Every re-arm goes through wire.DeadlineFor, which re-asserts the
	// poke if it raced the cancellation, so a blocked operation survives
	// a cancelled context by at most one deadline window.
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	nc.SetWriteDeadline(wire.DeadlineFor(ctx, grace))
	if err := conn.Send(&wire.Frame{Job: &wire.Job{Spec: job.Spec}}); err != nil {
		return nil, false, fmt.Errorf("sched: shard %s: sending job: %w", addr, err)
	}

	for {
		cells := st.take(ctx, chunkSize)
		if cells == nil {
			return nil, progressed, nil
		}
		outstanding := make(map[int]bool, len(cells))
		for _, c := range cells {
			outstanding[c] = true
		}
		lost := func() []int {
			l := make([]int, 0, len(outstanding))
			for c := range outstanding {
				l = append(l, c)
			}
			return l
		}
		// A shard that stops reading must not block the assignment write
		// forever (its taken cells would never requeue): bound it too.
		nc.SetWriteDeadline(wire.DeadlineFor(ctx, grace))
		if err := conn.Send(&wire.Frame{Assign: &wire.Assign{Cells: cells}}); err != nil {
			return lost(), progressed, fmt.Errorf("sched: shard %s: assigning cells: %w", addr, err)
		}
		for len(outstanding) > 0 {
			nc.SetReadDeadline(wire.DeadlineFor(ctx, grace))
			f, err := conn.Recv()
			if err != nil {
				return lost(), progressed, fmt.Errorf("sched: shard %s: %w", addr, err)
			}
			switch {
			case f.Heartbeat:
			case f.Result != nil:
				// A result for a cell this connection was never assigned
				// (or already resolved) is dropped: emitting it would
				// double-count the cell and corrupt the grid.
				if outstanding[f.Result.Index] {
					var payload any = f.Result.Payload
					if job.Decode != nil {
						if payload, err = job.Decode(f.Result.Index, f.Result.Payload.(wire.Raw)); err != nil {
							return lost(), progressed, &permanentError{fmt.Errorf("sched: shard %s: cell %d: %w", addr, f.Result.Index, err)}
						}
					}
					delete(outstanding, f.Result.Index)
					progressed = true
					st.complete()
					emit(f.Result.Index, payload)
				}
			case f.CellError != nil:
				if outstanding[f.CellError.Index] {
					delete(outstanding, f.CellError.Index)
					progressed = true
					st.fail(f.CellError.Index, remoteCellError(f.CellError))
				}
			case f.Fail != nil:
				return lost(), progressed, &permanentError{fmt.Errorf("sched: shard %s refused job: %s", addr, f.Fail.Msg)}
			default:
				return lost(), progressed, &permanentError{fmt.Errorf("sched: shard %s: unexpected %s frame", addr, f.Kind())}
			}
		}
	}
}

// remoteError reconstructs a transported cell failure: the message is
// the far side's rendering, the cause restores errors.Is compatibility
// with the pcerr sentinels.
type remoteError struct {
	msg   string
	cause error
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Unwrap() error { return e.cause }

// remoteCellError rebuilds a wire.CellError into the error a local run
// of the same cell would have produced: a pcerr.SimError locating the
// cell where the shard reported one, unwrapping to the matching
// sentinel where the shard classified one.
func remoteCellError(ce *wire.CellError) error {
	var inner error
	switch ce.Code {
	case wire.CodeUnknownProgram:
		inner = &remoteError{msg: ce.Msg, cause: pcerr.ErrUnknownProgram}
	case wire.CodeInvalidConfig:
		inner = &remoteError{msg: ce.Msg, cause: pcerr.ErrInvalidConfig}
	case wire.CodePanic:
		inner = &remoteError{msg: ce.Msg, cause: pcerr.ErrCellPanic}
	default:
		inner = errors.New(ce.Msg)
	}
	if !ce.Sim {
		return inner
	}
	return &pcerr.SimError{Program: ce.Program, Setting: ce.Setting, Arch: ce.Arch, Err: inner}
}

// remoteState is the shared cell dispenser and progress ledger of one
// Execute call. Cells move pending -> taken (by a shard) -> resolved
// (completed, failed, quarantined, or dropped after a lower-index
// failure); cells taken by a connection that dies move back to pending,
// with a per-cell strand count deciding quarantine.
type remoteState struct {
	mu   sync.Mutex
	cond sync.Cond

	pending    []int // unassigned cell indices, ascending
	unresolved int   // cells not yet completed, failed, or dropped
	done       int   // cells completed and emitted

	strands    map[int]int // per cell: dying connections it was assigned to
	maxStrands int         // strandings before quarantine

	failIdx int
	failErr error // lowest-indexed cell failure

	shards    int
	live      int
	lastErr   error // most recent shard death, for the exhausted wrap
	exhausted error // set when every shard died with cells unfinished

	finished chan struct{} // closed once the grid resolves or exhausts
}

func newRemoteState(cells, shards, maxStrands int) *remoteState {
	st := &remoteState{
		pending:    make([]int, cells),
		unresolved: cells,
		strands:    make(map[int]int),
		maxStrands: maxStrands,
		shards:     shards,
		live:       shards,
		finished:   make(chan struct{}),
	}
	for i := range st.pending {
		st.pending[i] = i
	}
	st.cond.L = &st.mu
	if cells == 0 {
		st.finish()
	}
	return st
}

func (st *remoteState) wake() {
	st.mu.Lock()
	st.cond.Broadcast()
	st.mu.Unlock()
}

// finish closes the finished channel exactly once, waking backing-off
// shard loops. Called with st.mu held.
func (st *remoteState) finish() {
	select {
	case <-st.finished:
	default:
		close(st.finished)
	}
}

// sleep pauses a shard loop between redial attempts, waking early when
// the context is cancelled or the grid finishes without it. It reports
// whether the redial is still worth making.
func (st *remoteState) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err() == nil
	case <-ctx.Done():
		return false
	case <-st.finished:
		return false
	}
}

// adaptChunk sizes one assignment: the full chunk while plenty of work
// remains, shrinking toward 1 as the unresolved-cell count approaches
// what the live shards hold in flight (live x chunk). At the tail this
// cuts both the work a dying shard strands and the tail latency - the
// final cells fan out one by one across every live shard instead of
// riding a single last chunk.
func adaptChunk(chunk, remaining, live int) int {
	if live < 1 {
		live = 1
	}
	c := remaining / (2 * live)
	if c >= chunk {
		return chunk
	}
	if c < 1 {
		return 1
	}
	return c
}

// take blocks until cells are available (requeues from dead connections
// included) and returns up to n of the lowest pending indices - fewer
// near the tail, where adaptChunk shrinks assignments - or nil when the
// grid is finished, the run is aborted, or ctx is cancelled.
func (st *remoteState) take(ctx context.Context, n int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if ctx.Err() != nil || st.unresolved == 0 || st.exhausted != nil {
			return nil
		}
		if len(st.pending) > 0 {
			n = adaptChunk(n, st.unresolved, st.live)
			if n > len(st.pending) {
				n = len(st.pending)
			}
			cells := append([]int(nil), st.pending[:n]...)
			st.pending = st.pending[n:]
			return cells
		}
		// Every remaining cell is on some other shard; wait for either a
		// finish or a requeue.
		st.cond.Wait()
	}
}

func (st *remoteState) complete() {
	st.mu.Lock()
	st.done++
	st.resolve(1)
	st.mu.Unlock()
}

// fail records a cell failure, keeping the lowest index, and drops every
// pending cell above it: those are undispatched, exactly the cells the
// local pool would never have handed out after stopping dispatch.
func (st *remoteState) fail(idx int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failErr == nil || idx < st.failIdx {
		st.failIdx, st.failErr = idx, err
	}
	st.dropAboveFailure()
	st.resolve(1)
}

// dropAboveFailure resolves-by-dropping pending cells above the failing
// index. Called with st.mu held, after failIdx is set.
func (st *remoteState) dropAboveFailure() {
	keep := st.pending[:0]
	for _, c := range st.pending {
		if c < st.failIdx {
			keep = append(keep, c)
		} else {
			st.resolve(1)
		}
	}
	st.pending = keep
}

// resolve retires n cells and wakes dispenser waiters (and backing-off
// shard loops) when the grid finishes. Called with st.mu held.
func (st *remoteState) resolve(n int) {
	st.unresolved -= n
	if st.unresolved == 0 {
		st.finish()
		st.cond.Broadcast()
	}
}

// strand requeues cells stranded by a dying connection whose shard will
// retry, counting each stranding toward quarantine.
func (st *remoteState) strand(lost []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.strandCells(lost)
	st.cond.Broadcast()
}

// strandCells moves stranded cells back to pending - minus any above a
// recorded failure - after bumping each cell's strand count. A cell
// stranded maxStrands times is quarantined instead: it has ridden too
// many dying connections to be innocent, so it fails typed
// (pcerr.ErrCellPoisoned) at its own index, preserving the lowest-
// index-error contract. Called with st.mu held.
func (st *remoteState) strandCells(lost []int) {
	sort.Ints(lost)
	for _, c := range lost {
		if st.failErr != nil && c > st.failIdx {
			st.resolve(1)
			continue
		}
		st.strands[c]++
		if st.strands[c] >= st.maxStrands {
			if st.failErr == nil || c < st.failIdx {
				st.failIdx = c
				st.failErr = fmt.Errorf("sched: cell %d: %w: stranded by %d dying shard connections",
					c, pcerr.ErrCellPoisoned, st.strands[c])
			}
			st.dropAboveFailure()
			st.resolve(1)
			continue
		}
		i := sort.SearchInts(st.pending, c)
		st.pending = append(st.pending, 0)
		copy(st.pending[i+1:], st.pending[i:])
		st.pending[i] = c
	}
}

// shardExit retires a shard for good (clean finish, cancellation,
// permanent error, or exhausted retry budget): its unresolved cells go
// back to the dispenser with strand accounting, and if it was the last
// live shard with work remaining, the run is marked exhausted.
func (st *remoteState) shardExit(lost []int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.strandCells(lost)
	st.live--
	if err != nil {
		st.lastErr = err
	}
	if st.live == 0 && st.unresolved > 0 && st.exhausted == nil {
		st.exhausted = fmt.Errorf("sched: %w: all %d shards exhausted their retry budgets with %d cells unfinished: %w",
			pcerr.ErrShardFailure, st.shards, st.unresolved, st.lastErr)
		st.finish()
	}
	// Requeued cells or the exhausted verdict both concern waiters.
	st.cond.Broadcast()
}
