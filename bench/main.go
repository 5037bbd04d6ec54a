// Command bench is the one benchmark of the whole pipeline: it drives
// the paper's system the way its three kinds of user do - the
// researcher generating a dataset and running leave-one-out, the
// operator resuming and sharing a fleet run through the result store,
// the build machine asking the prediction server for a setting - over
// six named workloads, prints every end-to-end metric by name and unit,
// checks the outputs against independent references, and in a separate
// traced pass times the calls into each layer from outside.
//
//	go run ./bench                       all workloads, untraced then traced
//	go run ./bench -workload serve-warm  one workload
//	go run ./bench -smoke                tiny grids, a few seconds in all
//	go run ./bench -compare a.json b.json
//
// The last line of standard output is one JSON object per workload run
// ({"correct", "attempted", "failed", "metrics"}): the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. README.md
// has every name, unit and reason.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// runConfig carries the flags a workload run needs.
type runConfig struct {
	seed    int64
	seconds float64
	repeats int
	smoke   bool
	// workdir is this workload's scratch directory inside the checkout
	// (stores, model artifacts); removed when the workload ends.
	workdir string
	// outdir receives trace-<workload>.json.
	outdir string
	procs  int
}

// verifyCells is how many dataset cells the independent path recomputes.
func (rc *runConfig) verifyCells() int {
	if rc.smoke {
		return 6
	}
	return 24
}

// checker collects correctness failures; any failure fails the run.
type checker struct {
	Failures []string `json:"failures,omitempty"`
}

func (c *checker) failf(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.Failures) == 0 }

// result is one workload's pass: the contract line plus what -out and
// -compare keep.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	checker
	Metrics metrics `json:"metrics"`
	// Detail carries phase medians that are not contract metrics.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Fingerprint is the dataset the workload produced or served from,
	// compared across workloads that share a grid.
	Fingerprint string `json:"fingerprint,omitempty"`
}

func newResult() *result {
	return &result{Metrics: metrics{}, Detail: map[string]float64{}}
}

// contractLine is the JSON object the driver reads from the last line.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one named set of inputs. run is the untraced pass and
// reports the end-to-end metrics; traced is the traced pass and reports
// the per-layer metrics.
type workload struct {
	name   string
	why    string
	run    func(ctx context.Context, rc *runConfig) (*result, error)
	traced func(ctx context.Context, rc *runConfig, tr *tracer) (*result, error)
}

// genWorkload is a storeless generation workload over one grid.
func genWorkload(name, why string, grid func(smoke bool) gridSpec, probes genProbes) workload {
	return workload{
		name: name, why: why,
		run: func(ctx context.Context, rc *runConfig) (*result, error) {
			return runGeneration(ctx, rc, grid(rc.smoke), probes.loo)
		},
		traced: func(ctx context.Context, rc *runConfig, tr *tracer) (*result, error) {
			return tracedGeneration(ctx, rc, tr, grid(rc.smoke), probes)
		},
	}
}

// serveWorkload is a serving workload over one key set and rate.
func serveWorkload(name, why string, spec func(smoke bool) serveSpec) workload {
	return workload{
		name: name, why: why,
		run: func(ctx context.Context, rc *runConfig) (*result, error) {
			return runServe(ctx, rc, spec(rc.smoke))
		},
		traced: func(ctx context.Context, rc *runConfig, tr *tracer) (*result, error) {
			return tracedServe(ctx, rc, tr, spec(rc.smoke))
		},
	}
}

var workloads = []workload{
	genWorkload("paper-small",
		"35x12x61 grid, generate then leave-one-out then figures: compile, trace generation and replay each hold a real share",
		paperSmallGrid, genProbes{loo: true, compile: true, replay: "a12", model: true}),
	genWorkload("sweep-deep",
		"35 programs x 1 arch x 201 settings: compile and trace generation dominate, replay is the smallest share",
		sweepDeepGrid, genProbes{compile: true}),
	genWorkload("sweep-wide",
		"35 programs x 200 extended archs x 16 settings: batched replay dominates, compile is almost nothing",
		sweepWideGrid, genProbes{replay: "wide"}),
	{
		name:   "fleet-store",
		why:    "paper-small grid resumed from a populated local store, then by two shard daemons reading a store service over TCP",
		run:    runFleet,
		traced: tracedFleet,
	},
	serveWorkload("serve-warm",
		"280 keys, far fewer than the 1024-entry feature cache: every request is a hit, HTTP, JSON and Mixture only",
		serveWarm),
	serveWorkload("serve-churn",
		"1890 keys against 1024 cache entries: nearly half the program queries miss and pay compile, trace generation and simulate",
		serveChurn),
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// environment is recorded with every report.
type environment struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Commit     string  `json:"commit"`
}

// report is the -out document: one run of the selected workloads.
type report struct {
	Env     environment `json:"env"`
	Results []*result   `json:"results"`
}

// commit is the revision the binary was built from, when the build
// stamped one (a checkout that is not a git repository has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// capProcs caps GOMAXPROCS at min(nproc, 4): the benchmark never opens
// more client connections or generator goroutines than that either.
func capProcs() int {
	n := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(n)
	return n
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workload names (default: all six)")
	seed := fs.Int64("seed", 11, "seed of every sampled input: settings, architectures, request sequences")
	seconds := fs.Float64("seconds", 15, "measuring time per workload pass")
	repeats := fs.Int("repeats", 0, "fixed pass count for the batch workloads (0 = as many as fit in -seconds)")
	traceMode := fs.Int("trace", 2, "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), 2 = both")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	smoke := fs.Bool("smoke", false, "tiny grids and one-second serve phases: the whole harness in a few seconds")
	compare := fs.Bool("compare", false, "compare two reports (or comma-separated lists of reports): bench -compare a.json b.json")
	outdir := fs.String("outdir", filepath.Join("bench", "out"), "directory for traces and scratch data, inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}

	var selected []*workload
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, w)
	}
	if *smoke && *seconds > 1 {
		*seconds = 1
	}

	procs := capProcs()
	rep := report{Env: environment{
		GoMaxProcs: procs, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *seconds, Smoke: *smoke, Commit: commit(),
	}}
	fmt.Fprintf(stdout, "bench: gomaxprocs=%d nproc=%d %s seed=%d seconds=%g smoke=%v commit=%s\n",
		procs, rep.Env.NProc, rep.Env.GoVersion, *seed, *seconds, *smoke, rep.Env.Commit)

	ctx := context.Background()
	for _, traced := range []bool{false, true} {
		if (traced && *traceMode == 0) || (!traced && *traceMode == 1) {
			continue
		}
		for _, w := range selected {
			rc := &runConfig{
				seed: *seed, seconds: *seconds, repeats: *repeats, smoke: *smoke,
				outdir: *outdir, procs: procs,
			}
			res, err := runWorkload(ctx, w, rc, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rep.Results = append(rep.Results, res)
			printResult(stdout, res)
		}
	}
	checkSharedFingerprints(&rep)
	allOK := true
	for _, res := range rep.Results {
		allOK = allOK && res.ok()
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	if !allOK {
		return 1
	}
	return 0
}

// runWorkload runs one pass of one workload inside a scratch directory
// of its own and shapes the result to the contract's metric set.
func runWorkload(ctx context.Context, w *workload, rc *runConfig, traced bool) (*result, error) {
	if err := os.MkdirAll(rc.outdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.outdir, "work-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc.workdir = dir

	var res *result
	if traced {
		tr := newTracer(w.name)
		if res, err = w.traced(ctx, rc, tr); err != nil {
			return nil, err
		}
		if err := tr.write(rc.outdir); err != nil {
			return nil, err
		}
		res.Metrics = res.Metrics.conform(perLayer)
	} else {
		if res, err = w.run(ctx, rc); err != nil {
			return nil, err
		}
		res.Metrics = res.Metrics.conform(endToEnd)
	}
	res.Workload, res.Traced = w.name, traced
	for name, v := range res.Metrics {
		switch {
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			res.failf("metric %s is not finite", name)
			v.Value = 0
			res.Metrics[name] = v
		case !traced && v.Value <= 0:
			res.failf("end-to-end metric %s reads %v, want a positive number", name, v.Value)
		}
	}
	return res, nil
}

// checkSharedFingerprints compares the datasets of workloads that share
// the paper-small grid when one process ran more than one of them.
func checkSharedFingerprints(rep *report) {
	var ref *result
	for _, res := range rep.Results {
		if res.Workload != "paper-small" && res.Workload != "fleet-store" || res.Fingerprint == "" {
			continue
		}
		if ref == nil {
			ref = res
		} else if res.Fingerprint != ref.Fingerprint {
			res.failf("dataset fingerprint %s differs from %s's %s", res.Fingerprint, ref.Workload, ref.Fingerprint)
		}
	}
}

// printResult prints the metrics by name and unit, then the contract
// line, which must stay the last line of a single-workload run.
func printResult(w io.Writer, res *result) {
	pass := "end-to-end"
	if res.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s: %s, ops=%d ops_failed=%d\n", res.Workload, pass, res.Attempted, res.Failed)
	skipped := 0
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		v := res.Metrics[name]
		if res.Traced && v.Value == 0 && v.N == 0 {
			skipped++ // a layer this workload never enters; the contract line carries the 0
			continue
		}
		if v.N > 1 {
			fmt.Fprintf(w, "  %-36s %14.6g %-7s (median of %d, min %.6g, max %.6g)\n", name, v.Value, v.Unit, v.N, v.Min, v.Max)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  (%d metrics of layers this workload does not enter read 0)\n", skipped)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Detail)) {
		fmt.Fprintf(w, "  (%s = %.6g)\n", name, res.Detail[name])
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	line := contractLine{Correct: res.ok(), Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: metrics{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(data))
}
