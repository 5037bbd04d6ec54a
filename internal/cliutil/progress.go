// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Init applies the standard tool prologue shared by every command: plain
// log formatting under the tool's name, flag parsing, and the
// SIGINT-cancelled context. Call it after registering flags.
func Init(name string) (context.Context, context.CancelFunc) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Parse()
	return SignalContext()
}

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM, for graceful shutdown: long-running pools drain, servers
// stop accepting and finish in-flight requests, and single-shot Session
// calls stop at their next entry boundary. After the first signal the
// default handler is restored, so a second Ctrl-C (or the supervisor's
// escalation to SIGKILL) force-kills instead of being swallowed while
// work winds down. The returned stop releases the signal registration.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// DrainSignals is the shutdown prologue of the fleet daemons (portccd,
// portccsd). The first SIGINT or SIGTERM closes drain: the serve loop
// stops accepting and finishes what is in flight - inflight names that
// work for the log line. A second signal cancels ctx, the hard stop, and
// forces the exit after a short grace: cells already inside
// compile/simulate are not context-aware, so the serve loop gets a
// moment to unwind and then "hard stop" means what it says.
func DrainSignals(inflight string) (ctx context.Context, drain <-chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("draining: %s (signal again to hard-stop)", inflight)
		close(drained)
		<-sig
		log.Print("hard stop: abandoning in-flight work")
		cancel()
		time.AfterFunc(2*time.Second, func() { os.Exit(1) })
	}()
	return ctx, drained
}

// ProgressPrinter returns a report callback that rewrites one terminal
// status line each time the whole percent of completed exploration cells
// changes, and once more at the last cell - at most 101 rewrites however
// large the grid, annotated with the shard count when the run is
// distributed (shards > 0) - plus a finish func
// that terminates the line if it is still open. Call finish before
// printing anything else (errors included) after a run that may have
// stopped early, so the message does not land on the half-drawn line;
// it is a no-op when the line already completed.
func ProgressPrinter(w io.Writer, shards int) (report func(done, total int), finish func()) {
	where := ""
	if shards > 0 {
		where = fmt.Sprintf(" (%d shards)", shards)
	}
	open, shown := false, -1
	report = func(done, total int) {
		pct := 100 * done / max(total, 1)
		if pct == shown && done != total {
			return
		}
		shown = pct
		fmt.Fprintf(w, "\rexploring: %d/%d cells (%d%%)%s", done, total, pct, where)
		open = done != total
		if !open {
			fmt.Fprintln(w)
		}
	}
	finish = func() {
		if open {
			fmt.Fprintln(w)
			open = false
		}
	}
	return report, finish
}
