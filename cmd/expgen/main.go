// Command expgen regenerates the paper's tables and figures.
//
// Usage:
//
//	expgen [-scale tiny|small|medium|paper] [-fig all|1|3|4|5|6|7|8|9|10|t1|t2|iters|ablation]
//	       [-dataset file] [-model file] [-workers N]
//	       [-store dir] [-store-budget bytes]
//	       [-shards host:port,host:port]
//	       [-shard-retries N] [-shard-backoff dur]
//	       [-cpuprofile file] [-memprofile file]
//
// Without -dataset the training dataset is generated in-process at the
// requested scale (see internal/experiments for what each scale samples);
// with -dataset a file produced by cmd/trainer is reused. With -model a
// pre-trained artifact (trainer -model-out) supplies the predictor for
// the leave-one-out experiments instead of training in-process; the
// artifact's dataset fingerprint must match the dataset in use.
// Generation, the leave-one-out evaluation, Figure 1 and the ablation
// all measure through the one exploration engine (dataset.Explore) under
// one dataset.ExploreOptions built from the flags - no Session: with
// -shards they are distributed over portccd worker daemons, with -store
// they commit replay results to a persistent store and answer from it on
// a rerun - output byte-identical either way, and a second run over a
// warm store compiles nothing. Generation alone reports progress as grid
// cells complete; Ctrl-C cancels cleanly, draining the worker pool.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"portcc"
	"portcc/internal/cliutil"
	"portcc/internal/dataset"
	"portcc/internal/experiments"
)

// figNames are the values -fig accepts.
var figNames = []string{"all", "1", "3", "4", "5", "6", "7", "8", "9", "10", "t1", "t2", "iters", "ablation"}

func main() {
	var cf cliutil.Flags
	cf.RegisterScale("small")
	cf.RegisterWorkers()
	cf.RegisterShards()
	cf.RegisterShardRetry()
	cf.RegisterStore()
	cf.RegisterProfile()
	fig := flag.String("fig", "all", "figure/table to regenerate ("+strings.Join(figNames, ", ")+")")
	dsFile := flag.String("dataset", "", "reuse a dataset file generated by cmd/trainer")
	cf.RegisterModel("pre-trained model artifact for the prediction experiments (from trainer -model-out)")
	ctx, stop := cliutil.Init("expgen")
	defer stop()
	if !slices.Contains(figNames, *fig) {
		// Nothing below matches an unknown name: without this the run
		// prints nothing and exits 0.
		fmt.Fprintf(os.Stderr, "expgen: unknown -fig %q (want one of %s)\n", *fig, strings.Join(figNames, ", "))
		os.Exit(2)
	}
	stopProfiles, err := cf.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	scale, ok := experiments.ScaleByName(cf.Scale)
	if !ok {
		log.Fatalf("unknown scale %q", cf.Scale)
	}

	shards := cf.Shards()
	rstore, err := cf.OpenStore()
	if err != nil {
		log.Fatal(err)
	}
	if rstore != nil {
		defer rstore.Close()
	}
	// The measurements after generation run without Progress: per-program
	// grid totals would redraw a misleading line.
	exploreOpts := dataset.ExploreOptions{
		Workers: cf.Workers,
		Shards:  shards,
		Retry:   cf.ShardRetry(),
		Store:   rstore,
	}
	report, finishProgress := cliutil.ProgressPrinter(os.Stderr, len(shards))
	generate := func(extended bool) (*portcc.Dataset, error) {
		o := exploreOpts
		o.Progress = report
		defer finishProgress()
		return dataset.GenerateWith(ctx, scale.GenConfig(extended), o)
	}
	storeStats := func() {
		if line := cliutil.StoreStats(rstore); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}

	want := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if *fig == n {
				return true
			}
		}
		return false
	}

	// Static tables need no dataset.
	if want("t1") {
		t1, err := experiments.Table1()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(t1)
	}
	if want("t2") {
		fmt.Print(experiments.Table2())
	}
	if want("3") {
		fmt.Print(experiments.Figure3())
	}
	needDS := want("1", "4", "5", "6", "7", "8", "9", "iters", "ablation")
	needExt := want("10")
	if !needDS && !needExt {
		return
	}

	var ds *portcc.Dataset
	if *dsFile != "" {
		ds, err = portcc.LoadDataset(*dsFile)
		if errors.Is(err, portcc.ErrDatasetVersion) {
			log.Fatalf("%v\n(regenerate the file with this build's cmd/trainer)", err)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded dataset %s\n", *dsFile)
	} else if needDS {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "generating %s dataset (%d archs x %d opts)...\n",
			scale.Name, scale.NumArchs, scale.NumOpts)
		ds, err = generate(false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dataset ready in %s\n", time.Since(start).Round(time.Second))
		storeStats()
	}

	var pr *experiments.Predictions
	if want("5", "6", "7", "iters") {
		start := time.Now()
		if cf.Model != "" {
			// A pre-trained artifact replaces the in-process ml.Train call;
			// the fingerprint check refuses a model fitted on different data,
			// where the leave-one-out exclusion indices would silently lie.
			model, info, err := portcc.LoadModel(cf.Model)
			if errors.Is(err, portcc.ErrModelVersion) {
				log.Fatalf("%v\n(regenerate the artifact with this build's cmd/trainer -model-out)", err)
			}
			if err != nil {
				log.Fatal(err)
			}
			fp, err := ds.Fingerprint()
			if err != nil {
				log.Fatal(err)
			}
			if fp != info.DatasetSHA256 {
				log.Fatalf("model artifact %s was trained on dataset %.12s..., but this run uses dataset %.12s... (retrain, or pass the matching -dataset)",
					cf.Model, info.DatasetSHA256, fp)
			}
			pr, err = experiments.PredictWithModel(ctx, ds, model, exploreOpts)
			if err != nil {
				log.Fatal(err)
			}
		} else if pr, err = experiments.PredictWith(ctx, ds, 0, 0, exploreOpts); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "leave-one-out predictions in %s\n", time.Since(start).Round(time.Second))
		storeStats()
	}

	if want("1") {
		f1, err := experiments.Figure1(ctx, ds, exploreOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(f1.Render())
	}
	if want("4") {
		fmt.Print(experiments.Figure4(ds).Render())
	}
	if want("5") {
		fmt.Print(experiments.Figure5(pr).Render())
	}
	if want("6") {
		fmt.Print(experiments.Figure6(pr).Render())
	}
	if want("7") {
		fmt.Print(experiments.Figure7(pr).Render())
	}
	if want("8") {
		h := experiments.Figure8(ds)
		fmt.Println("Figure 8: optimisation x program mutual information (rows: flags)")
		fmt.Print(h.Render())
		fmt.Println("  columns: " + strings.Join(h.ColLabels, " "))
	}
	if want("9") {
		h := experiments.Figure9(ds)
		fmt.Println("Figure 9: optimisation x feature mutual information (rows: flags)")
		fmt.Print(h.Render())
		fmt.Println("  columns: " + strings.Join(h.ColLabels, " "))
	}
	if want("iters") {
		fmt.Print(experiments.IterationsToMatch(pr).Render())
	}
	if want("ablation") {
		ab, err := experiments.Ablation(ctx, ds, exploreOpts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(ab.Render())
	}
	if want("10") {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "generating extended-space dataset (Section 7)...\n")
		eds, err := generate(true)
		if err != nil {
			log.Fatal(err)
		}
		epr, err := experiments.PredictWith(ctx, eds, 0, 0, exploreOpts)
		if err != nil {
			log.Fatal(err)
		}
		f10 := experiments.Figure10(epr)
		fmt.Println("Figure 10 (extended space: frequency 200-600MHz, width 1-2):")
		fmt.Print(f10.Render())
		fmt.Fprintf(os.Stderr, "extended space done in %s\n", time.Since(start).Round(time.Second))
		storeStats()
	}
}
