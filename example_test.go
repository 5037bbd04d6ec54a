package portcc_test

import (
	"context"
	"fmt"
	"log"

	"portcc"
)

// The smallest end-to-end use: one benchmark, one architecture, one
// speedup measurement against the -O3 baseline.
func ExampleSession_Speedup() {
	ctx := context.Background()
	s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()))

	// -O3 against itself is exactly 1 by construction.
	speedup, err := s.Speedup(ctx, "crc", portcc.O3(), portcc.XScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f\n", speedup)
	// Output: 1.000
}

// One compiled binary replayed over several microarchitectures in a
// single batched pass.
func ExampleSession_RunBatch() {
	ctx := context.Background()
	s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()))

	small := portcc.XScale()
	small.IL1Size = 4 << 10
	small.IL1Assoc = 4
	results, err := s.RunBatch(ctx, "crc", portcc.O3(), []portcc.Arch{portcc.XScale(), small})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(results), results[0].Cycles > 0)
	// Output: 2 true
}

// Streaming design-space exploration: grid cells arrive as they
// complete, and the loop can stop (or the context cancel) at any point.
func ExampleSession_Explore() {
	ctx := context.Background()
	s := portcc.NewSession(portcc.WithScale(portcc.TinyScale()), portcc.WithWorkers(2))

	req, err := s.NewExploreRequest(false)
	if err != nil {
		log.Fatal(err)
	}
	req.Programs = req.Programs[:1] // just the first benchmark
	req.Opts = req.Opts[:2]         // -O3 plus one sampled setting

	cells := 0
	for res, err := range s.Explore(ctx, req) {
		if err != nil {
			log.Fatal(err)
		}
		cells++
		_ = res.Results // one cell per setting: counters for every sampled arch
	}
	fmt.Println(cells)
	// Output: 2
}
