// Command portcc is the portable optimising compiler CLI (the paper's
// Figure 2 tool): it compiles a benchmark for a target microarchitecture,
// optionally letting the learned model choose the optimisation passes from
// one -O3 profiling run.
//
// Usage:
//
//	portcc -prog rijndael_e [-il1 4096] [-dl1 32768] [-btb 512]
//	       [-model model.bin | -dataset dataset.bin]
//
// Without a model the program is compiled at -O3. With -model, a
// pre-trained model artifact (from cmd/trainer -model-out) is loaded -
// no training runs, and profiling reuses the artifact's embedded
// workload parameters. With -dataset, a dataset file (from cmd/trainer)
// is loaded and the model trained in-process. Either way the
// predicted-best passes are applied; the tool prints the chosen passes
// (including the canonical config key), code size, cycles and the
// Table 1 counters.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"portcc"
	"portcc/internal/cliutil"
	"portcc/internal/features"
)

func main() {
	progName := flag.String("prog", "rijndael_e", "benchmark program to compile")
	il1 := flag.Int("il1", 32<<10, "instruction cache size in bytes")
	il1Assoc := flag.Int("il1assoc", 32, "instruction cache associativity")
	dl1 := flag.Int("dl1", 32<<10, "data cache size in bytes")
	dl1Assoc := flag.Int("dl1assoc", 32, "data cache associativity")
	btb := flag.Int("btb", 512, "branch target buffer entries")
	var cf cliutil.Flags
	cf.RegisterModel("pre-trained model artifact (from trainer -model-out)")
	dsFile := flag.String("dataset", "", "dataset file to train the model from in-process")
	list := flag.Bool("list", false, "list available benchmark programs")
	ctx, stop := cliutil.Init("portcc")
	defer stop()

	if *list {
		for _, n := range portcc.Programs() {
			fmt.Println(n)
		}
		return
	}

	arch := portcc.XScale()
	arch.IL1Size = *il1
	arch.IL1Assoc = *il1Assoc
	arch.DL1Size = *dl1
	arch.DL1Assoc = *dl1Assoc
	arch.BTBSize = *btb
	if err := arch.Validate(); err != nil {
		log.Fatal(err)
	}

	if cf.Model != "" && *dsFile != "" {
		log.Fatal("use either -model (artifact) or -dataset (train in-process), not both")
	}

	var s *portcc.Session
	var model *portcc.Model
	how := "-O3 (no model)"
	switch {
	case cf.Model != "":
		// The artifact path trains nothing: the model is deserialised,
		// and the session profiles with the artifact's embedded workload
		// parameters so the measured features match the training
		// distribution.
		m, info, err := portcc.LoadModel(cf.Model)
		if errors.Is(err, portcc.ErrModelVersion) {
			log.Fatalf("%v\n(regenerate the artifact with this build's cmd/trainer -model-out)", err)
		}
		if err != nil {
			log.Fatal(err)
		}
		s = portcc.NewSession(portcc.WithEvalConfig(portcc.ModelEval(info)))
		model = m
		how = "model-predicted passes (pre-trained artifact, one -O3 profile run)"
	case *dsFile != "":
		ds, err := portcc.LoadDataset(*dsFile)
		if errors.Is(err, portcc.ErrDatasetVersion) {
			log.Fatalf("%v\n(regenerate the file with this build's cmd/trainer)", err)
		}
		if err != nil {
			log.Fatal(err)
		}
		s = portcc.NewSession(portcc.WithEvalConfig(ds.Cfg.Eval))
		model, err = portcc.TrainModel(ds)
		if err != nil {
			log.Fatal(err)
		}
		how = "model-predicted passes (trained in-process, one -O3 profile run)"
	default:
		s = portcc.NewSession()
	}

	cfg := portcc.O3()
	if model != nil {
		var err error
		cfg, err = s.OptimizeFor(ctx, *progName, arch, model)
		if err != nil {
			log.Fatal(err)
		}
	}

	bin, res, speedup, err := s.CompileAndRun(ctx, *progName, cfg, arch)
	if err != nil {
		if errors.Is(err, portcc.ErrUnknownProgram) {
			log.Fatalf("%v (use -list for the benchmark suite)", err)
		}
		log.Fatal(err)
	}

	fmt.Printf("program:   %s\n", *progName)
	fmt.Printf("target:    %s\n", arch)
	fmt.Printf("passes:    %s\n", how)
	fmt.Printf("           %s\n", cfg.String())
	fmt.Printf("key:       %s\n", cfg.Key())
	fmt.Printf("code size: %d bytes (%d padding)\n", bin.TotalBytes, bin.PadBytes)
	fmt.Printf("cycles:    %d   IPC %.3f   speedup vs -O3: %.3fx\n", res.Cycles, res.IPC(), speedup)
	fmt.Printf("power:     %.1f mW (Cacti-style energy model)\n", res.PowerMW())
	fmt.Println("counters:")
	cs := features.Counters(&res)
	for i, n := range features.CounterNames() {
		fmt.Printf("  %-18s %.4f\n", n, cs[i])
	}
}
