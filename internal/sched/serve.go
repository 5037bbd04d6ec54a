// The worker-daemon side of remote execution: Serve accepts coordinator
// connections and runs their assigned cells on the in-process pool,
// streaming results back interleaved with heartbeats. cmd/portccd is a
// thin flag wrapper around this loop; tests drive it in-process.
package sched

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"time"

	"portcc/internal/pcerr"
	"portcc/internal/wire"
)

// Both executors satisfy the interface.
var (
	_ Executor = Local{}
	_ Executor = (*Remote)(nil)
)

// ServeConfig configures a worker serve loop.
type ServeConfig struct {
	// Format is the application schema version announced in the
	// handshake (for exploration workers, dataset.FormatVersion).
	Format int
	// Workers bounds the per-assignment cell pool (0 = GOMAXPROCS).
	Workers int
	// Heartbeat is the period at which quiet connections prove the
	// worker alive (default 1s); the coordinator treats a few missed
	// beats as a dead shard.
	Heartbeat time.Duration
	// NewRun turns a job spec - the wire.Raw bytes the coordinator's
	// Job.Spec appended - into the in-process cell runner for one
	// connection. An error refuses the job with a Fail frame. A payload
	// crosses the wire as the bytes it appends, so one that is not a
	// wire.Appender fails its cell with pcerr.ErrInvalidConfig.
	NewRun func(spec any) (func(slot, index int) (any, error), error)
	// Drain, when closed, drains the loop gracefully: stop accepting
	// connections, finish in-flight assignments (their results still
	// stream back), then close. Coordinators requeue the rest elsewhere.
	Drain <-chan struct{}
	// Logf, when set, receives one line per connection event.
	Logf func(format string, args ...any)
}

// Serve runs the worker daemon on ln until ctx is cancelled (hard stop:
// in-flight work is abandoned) or cfg.Drain is closed (graceful:
// in-flight assignments finish first), then blocks until every
// connection has exited. The listener is closed on return.
func Serve(ctx context.Context, ln net.Listener, cfg ServeConfig) error {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv := wire.Server{Format: cfg.Format, Heartbeat: cfg.Heartbeat, Drain: cfg.Drain, Logf: cfg.Logf}
	return srv.Serve(ctx, ln, func(ctx context.Context, conn *wire.Conn, peer string) {
		serveConn(ctx, conn, peer, cfg)
	})
}

// serveConn handles one handshaken coordinator connection: one job,
// then assignments until the coordinator hangs up, the context hard-
// stops, or a drain ends the idle wait after the current assignment.
func serveConn(ctx context.Context, conn *wire.Conn, peer string, cfg ServeConfig) {
	f, err := conn.Recv()
	if err != nil {
		return
	}
	if f.Job == nil {
		cfg.Logf("%s: expected job, got %s frame", peer, f.Kind())
		return
	}
	run, err := cfg.NewRun(f.Job.Spec)
	if err != nil {
		cfg.Logf("%s: refusing job: %v", peer, err)
		conn.Send(&wire.Frame{Fail: &wire.Fail{Msg: err.Error()}})
		return
	}
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		if f.Assign == nil {
			cfg.Logf("%s: expected assign, got %s frame", peer, f.Kind())
			return
		}
		if !serveAssign(ctx, conn, cfg, run, f.Assign.Cells) {
			return
		}
	}
}

// serveAssign resolves every assigned cell with exactly one Result or
// CellError frame, fanning the cells over the worker pool. It reports
// whether the connection is still worth serving.
func serveAssign(ctx context.Context, conn *wire.Conn, cfg ServeConfig, run func(int, int) (any, error), cells []int) bool {
	// A failed send means the coordinator is gone: stop burning work on
	// the remaining cells (they will be requeued on a surviving shard).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	Run(cctx, cfg.Workers, len(cells), func(slot, i int) error {
		payload, err := runCellRecovered(cfg, run, slot, cells[i])
		f := &wire.Frame{Result: &wire.Result{Index: cells[i], Payload: payload}}
		if err != nil {
			f = &wire.Frame{CellError: cellError(cells[i], err)}
		}
		if conn.Send(f) != nil {
			cancel()
		}
		return nil
	})
	return ctx.Err() == nil && cctx.Err() == nil
}

// runCellRecovered runs one cell, converting a panic in the runner, or a
// payload without a wire codec, into a typed cell error instead of
// letting it kill the daemon or the connection: one bad cell degrades to
// a CellError frame at its own index while the connection - and every
// other coordinator's in-flight work - keeps being served. The panic
// value travels in the error; the stack goes to the daemon log.
func runCellRecovered(cfg ServeConfig, run func(int, int) (any, error), slot, index int) (payload wire.Appender, err error) {
	defer func() {
		if r := recover(); r != nil {
			cfg.Logf("cell %d panicked: %v\n%s", index, r, debug.Stack())
			err = fmt.Errorf("%w: cell %d: %v", pcerr.ErrCellPanic, index, r)
		}
	}()
	v, err := run(slot, index)
	payload, ok := v.(wire.Appender)
	if err == nil && !ok {
		err = fmt.Errorf("sched: %w: cell %d payload %T has no wire codec", pcerr.ErrInvalidConfig, index, v)
	}
	return payload, err
}

// cellError flattens a cell failure for the wire, preserving the
// pcerr.SimError grid location and sentinel classification so the
// coordinator reconstructs an errors.Is/As-compatible error.
func cellError(index int, err error) *wire.CellError {
	ce := &wire.CellError{Index: index, Msg: err.Error()}
	var se *pcerr.SimError
	if errors.As(err, &se) {
		ce.Sim = true
		ce.Program, ce.Setting, ce.Arch = se.Program, se.Setting, se.Arch
		ce.Msg = se.Err.Error()
	}
	switch {
	case errors.Is(err, pcerr.ErrUnknownProgram):
		ce.Code = wire.CodeUnknownProgram
	case errors.Is(err, pcerr.ErrInvalidConfig):
		ce.Code = wire.CodeInvalidConfig
	case errors.Is(err, pcerr.ErrCellPanic):
		ce.Code = wire.CodePanic
	}
	return ce
}
