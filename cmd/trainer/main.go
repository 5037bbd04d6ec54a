// Command trainer generates the paper's training dataset (Section 3.2):
// for every sampled (program, microarchitecture, optimisation setting)
// triple, the speedup over -O3 and the -O3 performance counters. The
// result is written as a versioned flat file for cmd/portcc and cmd/expgen.
// Generation streams through the Session exploration engine: progress is
// printed per completed grid cell and Ctrl-C cancels cleanly.
//
// With -shards the grid's work cells are shipped to portccd worker
// daemons over TCP instead of the local pool; the written dataset is
// bit-identical either way, including when a shard dies mid-run (its
// cells requeue onto the survivors while the coordinator redials it
// with backoff - tune with -shard-retries and -shard-backoff).
//
// With -model-out the model is additionally trained on the fresh
// dataset and written as a versioned model artifact - the file
// cmd/portcc -model, cmd/expgen -model and cmd/portccs serve from
// without retraining. The artifact embeds the dataset fingerprint and
// the profiling parameters, so deployments reproduce the training
// feature distribution.
//
// With -store the generation is resumable: replay results are committed
// to a persistent content-addressed store as they are produced, and a
// rerun after any interruption (kill -9 included) answers the already-
// computed cells from disk, writing a byte-identical dataset. Corrupt
// store entries are quarantined and recomputed; a full disk degrades to
// cache misses.
//
// Usage:
//
//	trainer -out dataset.bin [-model-out model.bin] [-scale small]
//	        [-archs N] [-opts N] [-extended] [-workers N] [-sweep-workers N]
//	        [-store dir] [-store-budget bytes]
//	        [-shards host:port,host:port]
//	        [-shard-retries N] [-shard-backoff dur]
//	        [-cpuprofile file] [-memprofile file]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"portcc"
	"portcc/internal/cliutil"
	"portcc/internal/experiments"
)

func main() {
	var cf cliutil.Flags
	cf.RegisterScale("small")
	cf.RegisterWorkers()
	cf.RegisterSweepWorkers()
	cf.RegisterShards()
	cf.RegisterShardRetry()
	cf.RegisterStore()
	cf.RegisterProfile()
	out := flag.String("out", "dataset.bin", "output file")
	modelOut := flag.String("model-out", "", "also train the model and write it as a versioned artifact")
	archs := flag.Int("archs", 0, "override architecture sample count")
	opts := flag.Int("opts", 0, "override optimisation sample count")
	extended := flag.Bool("extended", false, "use the Section 7 extended space")
	naive := flag.Bool("naive", false, "bypass the sweep state - compile index, windows, twin replay memo, result store (per-cell equivalence baseline; output is bit-identical)")
	ctx, stop := cliutil.Init("trainer")
	defer stop()
	stopProfiles, err := cf.StartProfiles()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	scale, ok := experiments.ScaleByName(cf.Scale)
	if !ok {
		log.Fatalf("unknown scale %q", cf.Scale)
	}
	if *archs > 0 {
		scale.NumArchs = *archs
	}
	if *opts > 0 {
		scale.NumOpts = *opts
	}

	shards := cf.Shards()
	rstore, err := cf.OpenStore()
	if err != nil {
		log.Fatal(err)
	}
	report, finishProgress := cliutil.ProgressPrinter(os.Stderr, len(shards))
	sessionOpts := []portcc.Option{
		portcc.WithScale(scale),
		portcc.WithWorkers(cf.Workers),
		portcc.WithSweepWorkers(cf.SweepWorkers),
		portcc.WithShards(shards...),
		portcc.WithShardRetry(cf.ShardRetry()),
		portcc.WithProgress(func(p portcc.Progress) { report(p.Done, p.Total) }),
	}
	if *naive {
		sessionOpts = append(sessionOpts, portcc.WithNaiveCompile())
	}
	if rstore != nil {
		sessionOpts = append(sessionOpts, portcc.WithResultStore(rstore))
		defer rstore.Close()
	}
	session := portcc.NewSession(sessionOpts...)

	start := time.Now()
	gc := scale.GenConfig(*extended)
	fmt.Printf("generating %s dataset: %d programs x %d archs x %d settings (extended=%v)\n",
		scale.Name, len(gc.Programs), scale.NumArchs, scale.NumOpts, *extended)
	ds, err := session.GenerateDataset(ctx, *extended)
	finishProgress()
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Save(*out); err != nil {
		log.Fatal(err)
	}
	nP, nA, nO := ds.Dims()
	fmt.Printf("wrote %s: %d pairs (%d x %d), %d settings each, in %s\n",
		*out, nP*nA, nP, nA, nO, time.Since(start).Round(time.Second))
	if line := cliutil.StoreStats(rstore); line != "" {
		fmt.Println(line)
	}

	if *modelOut != "" {
		model, err := portcc.TrainModel(ds)
		if err != nil {
			log.Fatal(err)
		}
		info, err := portcc.SaveModel(*modelOut, model, ds)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d pair models, dataset %.12s...\n",
			*modelOut, info.Pairs, info.DatasetSHA256)
	}
}
