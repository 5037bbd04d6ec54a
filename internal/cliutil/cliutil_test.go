package cliutil

import (
	"context"
	"errors"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"portcc/internal/dataset"
	"portcc/internal/pcerr"
	"portcc/internal/sched"
)

func TestFlagsShardsParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"", 0},
		{"host:1", 1},
		{"a:1,b:2", 2},
		{" a:1 , b:2 ,", 2}, // whitespace and trailing commas are noise
	} {
		f := Flags{shards: tc.in}
		if got := f.Shards(); len(got) != tc.want {
			t.Errorf("Shards(%q) = %v, want %d entries", tc.in, got, tc.want)
		}
	}
}

func TestShardRetryPolicy(t *testing.T) {
	// Unset flags yield the zero policy: scheduler defaults stay in force.
	var f Flags
	if got := f.ShardRetry(); got != (sched.RetryPolicy{}) {
		t.Errorf("unset retry flags produced %+v, want zero policy", got)
	}
	f = Flags{shardRetries: 7, shardBackoff: 250 * time.Millisecond}
	want := sched.RetryPolicy{MaxAttempts: 7, BaseBackoff: 250 * time.Millisecond}
	if got := f.ShardRetry(); got != want {
		t.Errorf("ShardRetry() = %+v, want %+v", got, want)
	}
}

func TestStartProfiles(t *testing.T) {
	// Unset flags: a no-op stop, no files, no error.
	var f Flags
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatalf("StartProfiles with no flags: %v", err)
	}
	if stop == nil {
		t.Fatal("StartProfiles returned a nil stop")
	}
	stop()

	dir := t.TempDir()
	f = Flags{cpuProfile: dir + "/cpu.pprof", memProfile: dir + "/mem.pprof"}
	stop, err = f.StartProfiles()
	if err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	stop()
	for _, p := range []string{f.cpuProfile, f.memProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	// An unwritable CPU profile path fails up front, not at stop.
	f = Flags{cpuProfile: dir + "/missing/cpu.pprof"}
	if _, err := f.StartProfiles(); err == nil {
		t.Error("StartProfiles with unwritable -cpuprofile path: want error")
	}
}

func TestProgressPrinterShardAnnotation(t *testing.T) {
	var local, sharded strings.Builder
	report, _ := ProgressPrinter(&local, 0)
	report(3, 10)
	if strings.Contains(local.String(), "shards") {
		t.Errorf("local progress line %q mentions shards", local.String())
	}
	report, finish := ProgressPrinter(&sharded, 2)
	report(3, 10)
	if !strings.Contains(sharded.String(), "3/10 cells") || !strings.Contains(sharded.String(), "(2 shards)") {
		t.Errorf("sharded progress line %q lacks cells done/total or shard count", sharded.String())
	}
	// finish terminates a half-drawn line exactly once.
	finish()
	finish()
	if got := strings.Count(sharded.String(), "\n"); got != 1 {
		t.Errorf("%d newlines after finish, want 1", got)
	}
}

// TestProgressPrinterThrottles: a paper-scale generation reports 35 035
// cells, and the line is rewritten only when the whole percent moves -
// at most 101 times - and ends on the last cell.
func TestProgressPrinterThrottles(t *testing.T) {
	var out strings.Builder
	report, finish := ProgressPrinter(&out, 0)
	const total = 35035
	for done := 1; done <= total; done++ {
		report(done, total)
	}
	finish()
	if n := strings.Count(out.String(), "\r"); n > 101 {
		t.Errorf("%d rewrites for %d cells, want at most 101", n, total)
	}
	if got := out.String(); !strings.HasSuffix(got, "35035/35035 cells (100%)\n") {
		t.Errorf("progress output ends %q, want the final 35035/35035 cells (100%%) line", got[max(len(got)-60, 0):])
	}
}

// TestStoreTiers: the start-up line names exactly the tiers the store
// flags compose.
func TestStoreTiers(t *testing.T) {
	for _, tc := range []struct {
		f    Flags
		want string
	}{
		{Flags{Store: "/d", StoreBudget: 9}, "result store at /d (budget 9 bytes)"},
		{Flags{StoreRemote: "h:1"}, "result store: fleet service h:1 (no local tier)"},
		{Flags{Store: "/d", StoreRemote: "h:1"}, "result store at /d (budget 0 bytes), tiered behind service h:1"},
	} {
		if got := tc.f.StoreTiers(); got != tc.want {
			t.Errorf("StoreTiers(%+v) = %q, want %q", tc.f, got, tc.want)
		}
	}
}

// TestOpenStoreRefusesBudgetWithoutStore: a byte budget bounds only the
// local directory, so one given without -store - alone or beside
// -store-remote - is a typed refusal, not a silently unbounded run.
func TestOpenStoreRefusesBudgetWithoutStore(t *testing.T) {
	for _, f := range []Flags{{StoreBudget: 1 << 20}, {StoreBudget: 1 << 20, StoreRemote: "127.0.0.1:1"}} {
		if rs, err := f.OpenStore(); rs != nil || !errors.Is(err, pcerr.ErrInvalidConfig) {
			t.Errorf("OpenStore(%+v) = %v, %v; want nil, ErrInvalidConfig", f, rs, err)
		}
	}
	if rs, err := (&Flags{}).OpenStore(); rs != nil || err != nil {
		t.Errorf("no store flags: OpenStore = %v, %v; want nil, nil", rs, err)
	}
	for _, f := range []Flags{{Store: t.TempDir(), StoreBudget: 1 << 20}, {StoreRemote: "127.0.0.1:1"}} {
		rs, err := f.OpenStore()
		if err != nil || rs == nil {
			t.Fatalf("OpenStore(%+v) = %v, %v; want a store", f, rs, err)
		}
		rs.Close()
	}
}

// TestStoreStatsShowsWhatAResumeSkipped: the ledger line of a run
// resumed over a populated store reports zero misses for results and
// for the compile index - the line trainer, expgen and portccd print.
func TestStoreStatsShowsWhatAResumeSkipped(t *testing.T) {
	if got := StoreStats(nil); got != "" {
		t.Fatalf("StoreStats(nil) = %q, want empty", got)
	}
	cfg := dataset.GenConfig{Programs: []string{"crc"}, NumArchs: 2, NumOpts: 8, Seed: 3,
		Eval: dataset.EvalConfig{TargetInsns: 4_000, Seed: 1}}
	dir := t.TempDir()
	lines := make([]string, 2)
	for i := range lines {
		rs, err := dataset.OpenResultStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dataset.GenerateWith(context.Background(), cfg, dataset.ExploreOptions{Workers: 1, Store: rs}); err != nil {
			t.Fatal(err)
		}
		lines[i] = StoreStats(rs)
		rs.Close()
	}
	if !regexp.MustCompile(`^store: 0 hits, [1-9].*; index: 0 block hits, [1-9][0-9]* misses, 0 quarantined$`).MatchString(lines[0]) {
		t.Errorf("cold ledger line %q", lines[0])
	}
	if !regexp.MustCompile(`^store: [1-9][0-9]* hits, 0 misses, .*; index: [1-9][0-9]* block hits, 0 misses, 0 quarantined$`).MatchString(lines[1]) {
		t.Errorf("resumed ledger line %q", lines[1])
	}
}

// TestDrainSignalsFirstSignalDrains: the first SIGTERM closes drain and
// leaves ctx alive - the hard stop is the second signal's job (which also
// forces the process to exit, so it is not exercised here).
func TestDrainSignalsFirstSignalDrains(t *testing.T) {
	ctx, drain := DrainSignals("finishing test work")
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drain:
	case <-time.After(5 * time.Second):
		t.Fatal("drain still open 5s after SIGTERM")
	}
	if ctx.Err() != nil {
		t.Error("the first signal cancelled ctx; it must only drain")
	}
}
