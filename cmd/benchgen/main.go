// Command benchgen measures dataset generation throughput on this
// machine: it runs dataset.Generate through the naive per-cell path and
// through the prefix-memoised batched path at the same scale, checks the
// two datasets are byte-identical, and writes the timings plus the
// batched path's work counters as JSON (BENCH_generate.json by default).
// CI runs it at tiny scale as a regression smoke; the committed
// BENCH_generate.json is produced at -scale small, the compile+trace-
// dominated regime the batched engine targets.
//
// Alongside the generation timings, benchgen measures the batched
// replay engine itself on the Section 7 extended space (width 1-2,
// where the dual-issue closed forms apply): one fixed gs trace replayed
// over -ext-archs sampled extended configurations, batched at one
// sweep worker versus a per-configuration cpu.Simulate loop, reported
// as Mevc/s (millions of event x config per second) and as the
// extended_speedup ratio. With -multicore N the batched replay is
// repeated at GOMAXPROCS=N with the sweep fanned over N workers, the
// gomaxprocs>1 record of the same engine.
//
// A third generation measurement exercises the persistent result store:
// one batched generation against an empty store directory (cold - every
// replay computed and committed to disk), then -runs generations against
// the populated store (warm - every replay answered from disk). All
// datasets are checked byte-identical to the storeless reference before
// any timing is recorded; the warm/cold ratio is the committed evidence
// that a resumed run is measurably faster than recomputing. With -store
// the store lives in that directory (and persists); by default it is a
// temporary directory removed afterwards.
//
// Usage:
//
//	benchgen [-scale small] [-runs 3] [-out BENCH_generate.json]
//	         [-ext-archs 200] [-multicore N [-multicore-comment ...]]
//	         [-store dir] [-store-budget bytes]
//	         [-check BENCH_generate.json [-check-slack 0.10]
//	          [-check-slack-extended 0.40] [-check-slack-multicore 0.35]
//	          [-check-slack-store 0.50]]
//	         [-tiny-speedup X] [-baseline-seconds S [-baseline-comment ...]]
//	         [-cpuprofile file] [-memprofile file]
//
// With -check, the measured naive/batched speedup is gated against a
// committed benchgen JSON (its own speedup at the same scale, or its
// tiny_speedup reference when running at tiny scale) and the process
// fails on a regression beyond the slack - the CI bench job's
// machine-portable regression gate. The extended_speedup ratio is gated
// the same way at any scale (the replay workload is fixed, not scaled),
// and the multicore ratio is gated with its own wider slack when the
// run and the reference used the same -multicore value: wall-clock
// ratios across GOMAXPROCS settings are scheduling-sensitive, and on a
// single-core box the honest ratio is ~1.0 however many workers spin.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"portcc/internal/cliutil"
	"portcc/internal/core"
	"portcc/internal/cpu"
	"portcc/internal/dataset"
	"portcc/internal/experiments"
	"portcc/internal/opt"
	"portcc/internal/prog"
	"portcc/internal/store"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// result is the JSON document benchgen emits.
type result struct {
	Scale      string  `json:"scale"`
	Programs   int     `json:"programs"`
	Archs      int     `json:"archs"`
	Opts       int     `json:"opts"`
	Runs       int     `json:"runs"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	NaiveSec   float64 `json:"naive_seconds_median"`
	BatchedSec float64 `json:"batched_seconds_median"`
	Speedup    float64 `json:"speedup"`
	// BaselineSec optionally records an externally measured generation
	// time of a previous build (-baseline-seconds), for speedup claims
	// against a baseline that lacks the naive/batched toggle. Zero when
	// not provided.
	BaselineSec     float64 `json:"baseline_seconds_median,omitempty"`
	SpeedupVsBase   float64 `json:"speedup_vs_baseline,omitempty"`
	BaselineComment string  `json:"baseline_comment,omitempty"`
	// Work counters from one batched run, summed over all worker
	// evaluators: the pass applications executed vs the ones the prefix
	// trie avoided, the trace generations skipped for settings whose
	// binaries came out byte-identical, and the trace generations
	// actually performed with the dynamic instructions they emitted
	// (trace-generator throughput changes show up here without a
	// profiler).
	PassRuns      int64 `json:"pass_runs"`
	PassRunsSaved int64 `json:"pass_runs_saved"`
	TraceReuses   int64 `json:"trace_reuses"`
	TraceGens     int64 `json:"trace_gens"`
	TraceEvents   int64 `json:"trace_events"`
	Identical     bool  `json:"datasets_byte_identical"`
	// TinySpeedup optionally records this tool's speedup measured at
	// -scale tiny on the same machine as the main entry (-tiny-speedup),
	// so a committed small-scale file also carries the reference the CI
	// tiny-scale smoke gates against with -check.
	TinySpeedup float64 `json:"tiny_speedup,omitempty"`
	// Extended-space replay record: one fixed gs trace (the bench_test.go
	// workload) replayed over ExtArchs sampled Section 7 configurations,
	// batched with one sweep worker vs a per-configuration cpu.Simulate
	// loop. The Mevc/s figures are machine-bound; the speedup ratio is
	// same-machine same-run and gates like the generation speedups.
	ExtArchs       int     `json:"extended_archs,omitempty"`
	ExtTraceEvents int64   `json:"extended_trace_events,omitempty"`
	ExtSeqMevcs    float64 `json:"extended_sequential_mevcs,omitempty"`
	ExtBatchMevcs  float64 `json:"extended_batched_mevcs,omitempty"`
	ExtSpeedup     float64 `json:"extended_speedup,omitempty"`
	// Multi-core record (-multicore N): the same batched extended replay
	// at GOMAXPROCS=N with the sweep fanned over N workers, and its
	// wall-clock ratio over the one-worker batched run above. The results
	// are bit-identical at every worker count; only the schedule moves.
	MCProcs   int     `json:"multicore_gomaxprocs,omitempty"`
	MCMevcs   float64 `json:"multicore_batched_mevcs,omitempty"`
	MCSpeedup float64 `json:"multicore_speedup,omitempty"`
	MCComment string  `json:"multicore_comment,omitempty"`
	// Persistent result-store record: batched generation against an
	// empty store (cold: computes and commits every replay), then
	// against the populated store (warm: answers every replay from
	// disk). The cold/warm ratio is the resume-speed claim of the store;
	// both datasets are byte-identical to the storeless run by
	// construction (checked fatally before writing). StoreEntries and
	// StoreBytes size the populated store for the measured scale.
	StoreColdSec     float64 `json:"store_cold_seconds,omitempty"`
	StoreWarmSec     float64 `json:"store_warm_seconds_median,omitempty"`
	StoreWarmSpeedup float64 `json:"store_warm_speedup,omitempty"`
	StoreEntries     int     `json:"store_entries,omitempty"`
	StoreBytes       int64   `json:"store_bytes,omitempty"`
}

// loadResult reads a previously written benchgen JSON document.
func loadResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(data, &r)
	return r, err
}

func main() {
	var cf cliutil.Flags
	cf.RegisterProfile()
	cf.RegisterStore()
	scaleName := flag.String("scale", "small", "scale to measure (tiny|small|medium|paper)")
	runs := flag.Int("runs", 3, "timed runs per path (median reported)")
	out := flag.String("out", "BENCH_generate.json", "output JSON path")
	baseline := flag.Float64("baseline-seconds", 0, "externally measured previous-build Generate seconds at this scale (recorded in the report)")
	baselineNote := flag.String("baseline-comment", "", "how the external baseline was measured")
	counters := flag.Bool("counters", true, "report batch work counters (costs one extra untimed single-worker pass over the grid)")
	tinySpeedup := flag.Float64("tiny-speedup", 0, "same-machine tiny-scale speedup to record alongside this entry (reference for -check)")
	extArchs := flag.Int("ext-archs", 200, "extended-space configurations in the replay-engine measurement (0 skips it)")
	multicore := flag.Int("multicore", 0, "repeat the batched extended replay at this GOMAXPROCS with matching sweep workers (0 skips it)")
	multicoreNote := flag.String("multicore-comment", "", "how the multicore record should be read (e.g. vCPU count of the measuring box)")
	check := flag.String("check", "", "committed benchgen JSON to regression-check the measured speedup against (CI gate)")
	checkSlack := flag.Float64("check-slack", 0.10, "fraction the speedup may fall below the -check reference before failing")
	checkSlackExt := flag.Float64("check-slack-extended", 0.40, "slack for the extended replay ratio (a 10x-class ratio moves more across boxes and runs than the generation ratio; losing the closed forms would drop it to ~2.5x, far below any slack)")
	checkSlackMC := flag.Float64("check-slack-multicore", 0.35, "slack for the multicore ratio (scheduling noise dwarfs the single-run slack)")
	checkSlackStore := flag.Float64("check-slack-store", 0.50, "slack for the store warm/cold ratio (disk-speed-sensitive; losing the store entirely would pin it at ~1.0, below any slack)")
	flag.Parse()
	stopProfiles, err := cf.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	scale, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		log.Fatalf("unknown scale %q", *scaleName)
	}
	cfg := scale.GenConfig(false)
	ctx := context.Background()

	time1 := func(naive bool) (time.Duration, *dataset.Dataset) {
		t0 := time.Now()
		ds, err := dataset.GenerateWith(ctx, cfg, dataset.ExploreOptions{Naive: naive})
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(t0), ds
	}
	median := func(naive bool) (float64, *dataset.Dataset) {
		var ts []float64
		var ds *dataset.Dataset
		for i := 0; i < *runs; i++ {
			d, got := time1(naive)
			ts = append(ts, d.Seconds())
			ds = got
		}
		sort.Float64s(ts)
		return ts[len(ts)/2], ds
	}

	fmt.Printf("measuring %s scale, %d run(s) per path\n", scale.Name, *runs)
	naiveSec, naiveDS := median(true)
	fmt.Printf("naive:   %.2fs (median)\n", naiveSec)
	batchSec, batchDS := median(false)
	fmt.Printf("batched: %.2fs (median)\n", batchSec)

	// The counters need a run whose evaluator we hold: replay the grid
	// through the request runner on one slot (an extra untimed pass;
	// disable with -counters=false on slow boxes).
	var stats dataset.Stats
	if *counters {
		req, err := cfg.Request()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("replaying the batched grid once more for work counters (untimed; -counters=false to skip)")
		stats = measureCounters(req)
	}

	r := result{
		Scale:         scale.Name,
		Programs:      len(cfg.Programs),
		Archs:         cfg.NumArchs,
		Opts:          cfg.NumOpts,
		Runs:          *runs,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		NaiveSec:      naiveSec,
		BatchedSec:    batchSec,
		Speedup:       naiveSec / batchSec,
		PassRuns:      stats.PassRuns,
		PassRunsSaved: stats.PassRunsSaved,
		TraceReuses:   stats.TraceReuses,
		TraceGens:     stats.TraceGens,
		TraceEvents:   stats.TraceEvents,
		Identical:     bytes.Equal(encodeDS(naiveDS), encodeDS(batchDS)),
		TinySpeedup:   *tinySpeedup,
	}
	if *baseline > 0 {
		r.BaselineSec = *baseline
		r.SpeedupVsBase = *baseline / batchSec
		r.BaselineComment = *baselineNote
	}
	if !r.Identical {
		log.Fatal("naive and batched datasets differ - refusing to write benchmark results")
	}
	measureStore(&r, cfg, *runs, cf.Store, cf.StoreBudget, encodeDS(batchDS))
	if *extArchs > 0 {
		measureReplay(&r, *runs, *extArchs, *multicore)
		r.MCComment = *multicoreNote
	}
	if *check != "" {
		if err := checkRegression(r, *check, *checkSlack, *checkSlackExt, *checkSlackMC, *checkSlackStore); err != nil {
			log.Fatal(err)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("speedup %.2fx; pass runs %d (+%d saved), trace reuses %d -> %s\n",
		r.Speedup, r.PassRuns, r.PassRunsSaved, r.TraceReuses, *out)
}

// checkRegression gates the measured naive/batched speedup against a
// committed reference entry. The speedup is a same-machine, same-run
// ratio, so it ports across runner generations where wall-clock medians
// do not; it guards the batching machinery (prefix-memoised compiles,
// trace dedup, pooled buffers) - regressions confined to code both paths
// share equally need the absolute medians or a profile. The reference is
// the committed entry's own speedup when the scales match, or its
// recorded tiny_speedup when this run is at tiny scale (how CI uses it
// against the small-scale committed file).
//
// Two further gates apply when both the run and the reference carry the
// corresponding records. The extended-replay speedup gates regardless
// of -scale (its workload is fixed, not scaled) at its own wider slack:
// a 10x-class ratio swings more across microarchitectures than the
// generation ratio does. The multicore ratio gates at a wider slack
// still, and only when the run and the reference used the same
// -multicore value: a ratio measured at a different worker count is a
// different experiment.
// The store warm/cold ratio gates only when the scales match (the store
// overhead is per-entry, so the ratio does not port across grid sizes)
// at the widest slack of all: it mixes disk and compute speed. Its job
// is to catch the store silently not being hit at all - that pins the
// ratio at ~1.0, far below any committed reference minus slack.
func checkRegression(r result, path string, slack, slackExt, slackMC, slackStore float64) error {
	ref, err := loadResult(path)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	want := 0.0
	switch {
	case ref.Scale == r.Scale:
		want = ref.Speedup
	case r.Scale == "tiny" && ref.TinySpeedup > 0:
		want = ref.TinySpeedup
	}
	if want <= 0 {
		return fmt.Errorf("-check: %s has no reference speedup for scale %q", path, r.Scale)
	}
	floor := want * (1 - slack)
	if r.Speedup < floor {
		return fmt.Errorf("-check: speedup %.3f is below %.3f (reference %.3f from %s, slack %.0f%%)",
			r.Speedup, floor, want, path, slack*100)
	}
	fmt.Printf("check ok: speedup %.3f >= %.3f (reference %.3f, slack %.0f%%)\n",
		r.Speedup, floor, want, slack*100)
	if r.ExtSpeedup > 0 && ref.ExtSpeedup > 0 {
		floor := ref.ExtSpeedup * (1 - slackExt)
		if r.ExtSpeedup < floor {
			return fmt.Errorf("-check: extended replay speedup %.3f is below %.3f (reference %.3f from %s, slack %.0f%%)",
				r.ExtSpeedup, floor, ref.ExtSpeedup, path, slackExt*100)
		}
		fmt.Printf("check ok: extended replay speedup %.3f >= %.3f (reference %.3f, slack %.0f%%)\n",
			r.ExtSpeedup, floor, ref.ExtSpeedup, slackExt*100)
	}
	if r.MCSpeedup > 0 && ref.MCSpeedup > 0 && r.MCProcs == ref.MCProcs {
		floor := ref.MCSpeedup * (1 - slackMC)
		if r.MCSpeedup < floor {
			return fmt.Errorf("-check: multicore (GOMAXPROCS=%d) speedup %.3f is below %.3f (reference %.3f from %s, slack %.0f%%)",
				r.MCProcs, r.MCSpeedup, floor, ref.MCSpeedup, path, slackMC*100)
		}
		fmt.Printf("check ok: multicore (GOMAXPROCS=%d) speedup %.3f >= %.3f (reference %.3f, slack %.0f%%)\n",
			r.MCProcs, r.MCSpeedup, floor, ref.MCSpeedup, slackMC*100)
	}
	if r.StoreWarmSpeedup > 0 && ref.StoreWarmSpeedup > 0 && ref.Scale == r.Scale {
		floor := ref.StoreWarmSpeedup * (1 - slackStore)
		if r.StoreWarmSpeedup < floor {
			return fmt.Errorf("-check: store warm speedup %.3f is below %.3f (reference %.3f from %s, slack %.0f%%)",
				r.StoreWarmSpeedup, floor, ref.StoreWarmSpeedup, path, slackStore*100)
		}
		fmt.Printf("check ok: store warm speedup %.3f >= %.3f (reference %.3f, slack %.0f%%)\n",
			r.StoreWarmSpeedup, floor, ref.StoreWarmSpeedup, slackStore*100)
	}
	return nil
}

// encodeDS is the byte-identity yardstick: the gob encoding datasets
// are compared and committed with.
func encodeDS(ds *dataset.Dataset) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ds); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// measureStore fills the persistent result-store record: one batched
// generation against an empty store (cold - computes every replay and
// commits it), then runs generations against the populated store (warm
// - answers every replay from disk, median reported). Both paths must
// produce bytes identical to the storeless reference dataset, and the
// warm runs must actually hit the store - a warm run that recomputes
// is a broken store, not a slow one, and fails the tool. With dir
// empty the store lives in a temporary directory removed afterwards;
// a named -store dir persists (and is NOT cold on a second benchgen
// run there, so leave it empty for committed measurements).
func measureStore(r *result, cfg dataset.GenConfig, runs int, dir string, budget int64, ref []byte) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "benchgen-store-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	gen := func() (float64, *dataset.Dataset, store.Stats) {
		rs, err := dataset.OpenResultStore(dir, budget)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		ds, err := dataset.GenerateWith(context.Background(), cfg, dataset.ExploreOptions{Store: rs})
		el := time.Since(t0).Seconds()
		if err != nil {
			log.Fatal(err)
		}
		st := rs.Stats()
		rs.Close()
		return el, ds, st
	}
	coldSec, coldDS, coldStats := gen()
	if !bytes.Equal(encodeDS(coldDS), ref) {
		log.Fatal("store-backed (cold) dataset differs from the storeless run - refusing to write benchmark results")
	}
	fmt.Printf("store cold: %.2fs (%d entries, %d bytes committed)\n",
		coldSec, coldStats.Entries, coldStats.Bytes)
	var warm []float64
	for i := 0; i < runs; i++ {
		sec, ds, st := gen()
		if !bytes.Equal(encodeDS(ds), ref) {
			log.Fatal("store-backed (warm) dataset differs from the storeless run - refusing to write benchmark results")
		}
		if st.Hits == 0 || st.Misses > 0 {
			log.Fatalf("warm run %d recomputed instead of hitting the store (%d hits, %d misses) - refusing to write benchmark results",
				i, st.Hits, st.Misses)
		}
		warm = append(warm, sec)
	}
	sort.Float64s(warm)
	r.StoreColdSec = coldSec
	r.StoreWarmSec = warm[len(warm)/2]
	r.StoreWarmSpeedup = coldSec / r.StoreWarmSec
	r.StoreEntries = coldStats.Entries
	r.StoreBytes = coldStats.Bytes
	fmt.Printf("store warm: %.2fs (median); %.2fx over cold\n", r.StoreWarmSec, r.StoreWarmSpeedup)
}

// measureReplay fills the extended-space replay records: the fixed gs
// trace from the bench_test.go harness replayed over extArchs sampled
// Section 7 configurations - sequential cpu.Simulate loop, batched at
// one sweep worker, and (when multicore > 0) batched at GOMAXPROCS =
// multicore with the sweep fanned over as many workers. Every path's
// results are checked identical before any timing is recorded.
func measureReplay(r *result, runs, extArchs, multicore int) {
	m := prog.MustBuild("gs")
	o3 := opt.O3()
	p, err := core.Compile(m, &o3)
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.Generate(p, trace.Config{Runs: 2, MaxInsns: 200000, Seed: 1})
	rng := rand.New(rand.NewSource(7))
	cfgs := uarch.Space{Extended: true}.SampleN(rng, extArchs)
	evc := float64(tr.Insns()) * float64(len(cfgs))

	seq := make([]cpu.Result, len(cfgs))
	median := func(f func()) float64 {
		var ts []float64
		for i := 0; i < runs; i++ {
			t0 := time.Now()
			f()
			ts = append(ts, time.Since(t0).Seconds())
		}
		sort.Float64s(ts)
		return ts[len(ts)/2]
	}
	fmt.Printf("replay engine: gs trace (%d events) x %d extended configs\n", tr.Insns(), len(cfgs))
	seqSec := median(func() {
		for i, c := range cfgs {
			seq[i] = cpu.Simulate(tr, c)
		}
	})
	var batch []cpu.Result
	batchSec := median(func() { batch = cpu.SimulateBatchWith(tr, cfgs, 1) })
	for i := range batch {
		if batch[i] != seq[i] {
			log.Fatalf("batched extended replay diverges from cpu.Simulate at config %d - refusing to write benchmark results", i)
		}
	}
	r.ExtArchs = len(cfgs)
	r.ExtTraceEvents = int64(tr.Insns())
	r.ExtSeqMevcs = evc / seqSec / 1e6
	r.ExtBatchMevcs = evc / batchSec / 1e6
	r.ExtSpeedup = seqSec / batchSec
	fmt.Printf("sequential: %.1f Mevc/s; batched (1 worker): %.1f Mevc/s; speedup %.2fx\n",
		r.ExtSeqMevcs, r.ExtBatchMevcs, r.ExtSpeedup)
	if multicore <= 0 {
		return
	}
	prev := runtime.GOMAXPROCS(multicore)
	var mc []cpu.Result
	mcSec := median(func() { mc = cpu.SimulateBatchWith(tr, cfgs, multicore) })
	runtime.GOMAXPROCS(prev)
	for i := range mc {
		if mc[i] != seq[i] {
			log.Fatalf("multicore extended replay diverges from cpu.Simulate at config %d - refusing to write benchmark results", i)
		}
	}
	r.MCProcs = multicore
	r.MCMevcs = evc / mcSec / 1e6
	r.MCSpeedup = batchSec / mcSec
	fmt.Printf("batched (GOMAXPROCS=%d, %d sweep workers): %.1f Mevc/s; %.2fx over 1 worker\n",
		multicore, multicore, r.MCMevcs, r.MCSpeedup)
}

// measureCounters runs the batched grid on a single-slot runner and
// returns the evaluator work counters (not timed).
func measureCounters(req dataset.ExploreRequest) dataset.Stats {
	run, ev := req.InstrumentedRunnerStore(nil)
	cells := req.Cells()
	for i := 0; i < cells; i++ {
		if _, err := run(0, i); err != nil {
			log.Fatal(err)
		}
	}
	return ev.Stats()
}
