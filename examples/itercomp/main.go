// Itercomp: iterative compilation versus the learned model (the paper's
// Section 5.3 comparison). For one program/microarchitecture pair we run
// random search, hill climbing and a genetic algorithm over the
// optimisation space, then show how many evaluations each needs to match
// what the model achieves after a single -O3 profiling run.
//
// The search objective is Session.Speedup: its -O3 denominator is the
// session's memoised -O3 run of the (program, architecture) pair - the
// run OptimizeFor profiles, too - so the model's prediction and the
// hundreds of candidate evaluations pay for exactly one -O3 simulation.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"portcc"
	"portcc/internal/opt"
	"portcc/internal/search"
)

func main() {
	const program = "search"
	ctx := context.Background()
	arch := portcc.XScale()
	arch.IL1Size = 8 << 10
	arch.IL1Assoc = 4

	// One session at the tiny scale drives both training and the search
	// objective: measurements use TinyScale's shortened traces, so the
	// printed numbers are illustrative, trading fidelity for a fast
	// demo (the paper-style protocol would use full-length traces).
	s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()))
	objective := func(c *opt.Config) float64 {
		speedup, err := s.Speedup(ctx, program, *c, arch)
		if err != nil {
			log.Fatal(err)
		}
		return speedup
	}

	// The model's single-profile-run prediction.
	ds, err := s.GenerateDataset(ctx, false)
	if err != nil {
		log.Fatal(err)
	}
	model, err := portcc.TrainModel(ds)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := s.OptimizeFor(ctx, program, arch, model)
	if err != nil {
		log.Fatal(err)
	}
	modelSpeedup := objective(&cfg)
	fmt.Printf("%s on %s\n", program, arch)
	fmt.Printf("model (1 profile run): %.3fx vs -O3\n\n", modelSpeedup)

	const evals = 200
	for _, alg := range []struct {
		name string
		run  func(search.Objective, int, *rand.Rand) search.Result
	}{
		{"random search", search.Random},
		{"hill climbing", search.HillClimb},
		{"genetic algorithm", search.Genetic},
	} {
		rng := rand.New(rand.NewSource(7))
		res := alg.run(objective, evals, rng)
		toMatch := search.EvalsToReach(res.Curve, modelSpeedup)
		match := fmt.Sprintf("%d evaluations", toMatch)
		if toMatch < 0 {
			match = fmt.Sprintf("not matched in %d evaluations", evals)
		}
		fmt.Printf("%-18s best %.3fx after %d evals; model matched after %s\n",
			alg.name, res.BestScore, res.Evals, match)
	}
	fmt.Println("\n(The paper reports iterative compilation needing ~50 evaluations")
	fmt.Println(" on average to match the model's one-run performance.)")
}
