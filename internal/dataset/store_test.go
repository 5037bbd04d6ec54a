package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portcc/internal/faultfs"
	"portcc/internal/opt"
	"portcc/internal/pcerr"
	"portcc/internal/store"
)

// storeConfig is the small grid every store test generates: big enough
// to exercise windows, twins and multiple programs, small enough to run
// in seconds.
func storeConfig() GenConfig {
	return GenConfig{
		Programs: []string{"crc", "qsort"},
		NumArchs: 2,
		NumOpts:  8,
		Seed:     11,
		Eval:     EvalConfig{TargetInsns: 4_000, Seed: 1},
	}
}

// generateBytes runs one generation and returns the saved dataset's
// bytes - the byte-identity oracle every store test compares against.
func generateBytes(t *testing.T, o ExploreOptions) []byte {
	t.Helper()
	ds, err := GenerateWith(context.Background(), storeConfig(), o)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "ds.gob")
	if err := ds.Save(p); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openStore opens a ResultStore with test cleanup attached.
func openStore(t *testing.T, dir string) *ResultStore {
	t.Helper()
	rs, err := OpenResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// TestStoreBackedGenerationByteIdentical is the headline contract: a
// cold store-backed run and a warm rerun both produce byte-identical
// datasets to a storeless run, and the warm run answers every replay
// from disk.
func TestStoreBackedGenerationByteIdentical(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	dir := t.TempDir()

	cold := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: cold}); !bytes.Equal(got, ref) {
		t.Fatal("cold store-backed dataset differs from storeless dataset")
	}
	cs := cold.Stats()
	if cs.Puts == 0 || cs.Misses == 0 {
		t.Fatalf("cold run committed nothing: %+v", cs)
	}
	if cs.Hits != 0 {
		t.Fatalf("cold run hit a fresh store: %+v", cs)
	}
	cold.Close()

	warm := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: warm}); !bytes.Equal(got, ref) {
		t.Fatal("warm store-backed dataset differs from storeless dataset")
	}
	ws := warm.Stats()
	if ws.Hits == 0 || ws.Misses != 0 {
		t.Fatalf("warm run was not fully served from disk: %+v", ws)
	}
}

// TestResumeAfterCancelByteIdentical kills a store-backed generation
// mid-flight (context cancellation - the in-process stand-in for
// kill -9, which CI exercises with a real SIGKILL) and restarts with
// the same store: the resumed run completes byte-identical and reuses
// the first run's committed cells.
func TestResumeAfterCancelByteIdentical(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 1})
	dir := t.TempDir()

	first := openStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := GenerateWith(ctx, storeConfig(), ExploreOptions{
		Workers: 1,
		Store:   first,
		Progress: func(done, total int) {
			if done == total/3 {
				cancel()
			}
		},
	})
	var pe *pcerr.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("cancelled run returned %v, want PartialError", err)
	}
	if s := first.Stats(); s.Puts == 0 {
		t.Fatalf("interrupted run committed nothing: %+v", s)
	}
	first.Close()

	resumed := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 1, Store: resumed}); !bytes.Equal(got, ref) {
		t.Fatal("resumed dataset differs from cold dataset")
	}
	if s := resumed.Stats(); s.Hits == 0 {
		t.Fatalf("resumed run reused nothing: %+v", s)
	}
}

// TestCorruptStoreRecomputesByteIdentical bit-flips every committed
// entry between runs: the rerun must quarantine them all, recompute,
// and still produce the byte-identical dataset - corruption can cost
// speed, never correctness.
func TestCorruptStoreRecomputesByteIdentical(t *testing.T) {
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	dir := t.TempDir()

	cold := openStore(t, dir)
	generateBytes(t, ExploreOptions{Workers: 2, Store: cold})
	cold.Close()

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".ent") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatal("cold run left no entry files to corrupt")
	}

	warm := openStore(t, dir)
	if got := generateBytes(t, ExploreOptions{Workers: 2, Store: warm}); !bytes.Equal(got, ref) {
		t.Fatal("dataset over a corrupted store differs from reference")
	}
	s := warm.Stats()
	if s.Corrupt != int64(flipped) {
		t.Fatalf("quarantined %d entries, flipped %d (%+v)", s.Corrupt, flipped, s)
	}
	if s.Hits != 0 {
		t.Fatalf("a flipped entry was served: %+v", s)
	}
	if qs, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(qs) != flipped {
		t.Fatalf("quarantine holds %d files, want %d (err %v)", len(qs), flipped, err)
	}
}

// TestChaosMatrix drives store-backed generation under seeded faultfs
// schedules - torn writes, ENOSPC, EIO, failed renames, crash points -
// and proves the run's only possible degradation is speed: every
// schedule yields the byte-identical dataset, and a clean reopen of
// whatever the faults left on disk serves only valid entries.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix in -short mode")
	}
	ref := generateBytes(t, ExploreOptions{Workers: 2})
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.New(faultfs.OS(), faultfs.Seeded(seed, 6))
			rs, err := OpenResultStoreFS(dir, 0, "", inj)
			opts := ExploreOptions{Workers: 2}
			if err == nil {
				// A store that opened must absorb every later fault.
				opts.Store = rs
				defer rs.Close()
			}
			// An Open refused by the faulty disk degrades to storeless
			// generation - the caller's contract, exercised here too.
			if got := generateBytes(t, opts); !bytes.Equal(got, ref) {
				t.Fatalf("dataset under fault schedule %d differs", seed)
			}

			// Reboot: whatever the schedule left behind, a clean reopen
			// serves only valid entries and the rerun is byte-identical.
			clean, err := OpenResultStore(dir, 0)
			if err != nil {
				t.Fatalf("reopen after faults: %v", err)
			}
			defer clean.Close()
			if got := generateBytes(t, ExploreOptions{Workers: 2, Store: clean}); !bytes.Equal(got, ref) {
				t.Fatalf("post-fault rerun under schedule %d differs", seed)
			}
			if s := clean.Stats(); s.Corrupt != 0 {
				t.Fatalf("schedule %d committed a corrupt entry: %+v", seed, s)
			}
		})
	}
}

// TestStoreKeySensitivity proves the content key separates every input
// that changes replay results: different fingerprints, run counts,
// seeds, trace caps and architecture ranges address different entries.
func TestStoreKeySensitivity(t *testing.T) {
	cfg := storeConfig()
	req, err := cfg.Request()
	if err != nil {
		t.Fatal(err)
	}
	archs := req.Archs
	base := resultKey([32]byte{1}, 2, cfg.Eval, archs)
	for name, k := range map[string]store.Key{
		"fingerprint": resultKey([32]byte{2}, 2, cfg.Eval, archs),
		"runs":        resultKey([32]byte{1}, 3, cfg.Eval, archs),
		"seed":        resultKey([32]byte{1}, 2, EvalConfig{TargetInsns: cfg.Eval.TargetInsns, Seed: 99}, archs),
		"maxinsns":    resultKey([32]byte{1}, 2, EvalConfig{TargetInsns: cfg.Eval.TargetInsns, Seed: cfg.Eval.Seed, MaxInsns: 12}, archs),
		"arch-range":  resultKey([32]byte{1}, 2, cfg.Eval, archs[:1]),
	} {
		if k == base {
			t.Fatalf("key ignores %s", name)
		}
	}
}

// TestBlockKeySensitivity is the same property for the compile index:
// everything a block's binaries and run count depend on moves its key.
func TestBlockKeySensitivity(t *testing.T) {
	req := tinyRequest(t, 9)
	eval := req.Eval.withDefaults()
	swapped := append([]opt.Config(nil), req.Opts[:8]...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	with := func(f func(*EvalConfig)) EvalConfig { c := eval; f(&c); return c }
	base := blockKey("crc", [32]byte{1}, req.Opts[:8], eval)
	for name, k := range map[string]store.Key{
		"program":      blockKey("qsort", [32]byte{1}, req.Opts[:8], eval),
		"module":       blockKey("crc", [32]byte{2}, req.Opts[:8], eval),
		"settings":     blockKey("crc", [32]byte{1}, req.Opts[1:9], eval),
		"order":        blockKey("crc", [32]byte{1}, swapped, eval),
		"block-length": blockKey("crc", [32]byte{1}, req.Opts[:7], eval),
		"target":       blockKey("crc", [32]byte{1}, req.Opts[:8], with(func(c *EvalConfig) { c.TargetInsns++ })),
		"maxinsns":     blockKey("crc", [32]byte{1}, req.Opts[:8], with(func(c *EvalConfig) { c.MaxInsns++ })),
		"seed":         blockKey("crc", [32]byte{1}, req.Opts[:8], with(func(c *EvalConfig) { c.Seed++ })),
	} {
		if k == base {
			t.Errorf("index key ignores %s", name)
		}
	}
}

// TestEvaluatorRunStorePath proves the single-replay path (the
// prediction server's profile cache): a fresh evaluator over a warm
// store answers Run from disk without generating a trace, and the
// result matches the storeless computation exactly.
func TestEvaluatorRunStorePath(t *testing.T) {
	cfg := storeConfig()
	req, err := cfg.Request()
	if err != nil {
		t.Fatal(err)
	}
	name, oc, arch := req.Programs[0], req.Opts[1], req.Archs[0]

	plain := NewEvaluator(cfg.Eval)
	want, err := plain.Run(name, &oc, arch)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := openStore(t, dir)
	ev1 := NewEvaluator(cfg.Eval)
	ev1.SetStore(first)
	got, err := ev1.Run(name, &oc, arch)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("store-backed Run differs from plain Run")
	}
	if s := ev1.Stats(); s.StoreMisses == 0 {
		t.Fatalf("cold Run did not consult the store: %+v", s)
	}
	first.Close()

	second := openStore(t, dir)
	ev2 := NewEvaluator(cfg.Eval)
	ev2.SetStore(second)
	got2, err := ev2.Run(name, &oc, arch)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Fatal("warm Run differs from plain Run")
	}
	s := ev2.Stats()
	if s.StoreHits == 0 {
		t.Fatalf("warm Run missed the store: %+v", s)
	}
	// The -O3 probe (which fixes the run count, part of the key) still
	// runs once; the replay itself must come from disk.
	if s.Simulations != 0 {
		t.Fatalf("warm Run simulated anyway: %+v", s)
	}
	if s.TraceGens > 1 {
		t.Fatalf("warm Run generated beyond the -O3 probe: %+v", s)
	}
}
