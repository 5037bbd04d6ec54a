// The race detector makes sync.Pool drop items on purpose, so the
// zero-alloc pin only holds in normal builds.
//go:build !race

package cpu

import (
	"math/rand"
	"testing"

	"portcc/internal/uarch"
)

// TestSimulateSteadyStateAllocs pins the pooled hot path: after warm-up,
// Simulate must not allocate (the seed performed 10 allocations and 31552
// bytes per call building fresh cache and BTB state).
func TestSimulateSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 5000)
	cfg := uarch.XScale()
	Simulate(tr, cfg) // warm the pools
	allocs := testing.AllocsPerRun(50, func() {
		Simulate(tr, cfg)
	})
	if allocs != 0 {
		t.Errorf("steady-state Simulate allocates %.1f times per run, want 0", allocs)
	}
}

// TestSimulateBatchAllocsFlat pins the batch engine's allocation shape:
// its per-call setup (geometry dedup maps, group headers, the Result
// slice) may allocate a constant amount per configuration set, but with
// the replay arena pooled - including the permutation words - nothing may
// scale with the trace: replaying a 16x longer trace must cost exactly
// the same allocations per call.
func TestSimulateBatchAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	short := randomTrace(rng, 5000)
	long := randomTrace(rng, 80000) // spans multiple 32768-event blocks
	archs := sampleArchs(rng, 16, true)
	SimulateBatch(long, archs) // size the pooled arena for the large call
	SimulateBatch(short, archs)
	shortAllocs := testing.AllocsPerRun(20, func() { SimulateBatch(short, archs) })
	longAllocs := testing.AllocsPerRun(20, func() { SimulateBatch(long, archs) })
	if longAllocs != shortAllocs {
		t.Errorf("SimulateBatch allocations scale with trace length: %.1f per call at 5k events, %.1f at 80k",
			shortAllocs, longAllocs)
	}
}

// TestSimulateBatchClosedFormAllocs pins the width-2 closed-form path the
// same way: everything it adds over the base engine (pairing groups, the
// shared pairability and eligibility bitsets, the width-2 histogram)
// lives in the pooled arena, so replaying a 16x longer trace through an
// all-dual-issue configuration set must cost identical allocations.
func TestSimulateBatchClosedFormAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	short := randomTrace(rng, 5000)
	long := randomTrace(rng, 80000)
	space := uarch.Space{Extended: true}
	archs := space.SampleN(rng, 24)
	for i := range archs {
		archs[i].Width = 2
	}
	SimulateBatch(long, archs) // size the pooled arena for the large call
	SimulateBatch(short, archs)
	shortAllocs := testing.AllocsPerRun(20, func() { SimulateBatch(short, archs) })
	longAllocs := testing.AllocsPerRun(20, func() { SimulateBatch(long, archs) })
	if longAllocs != shortAllocs {
		t.Errorf("closed-form SimulateBatch allocations scale with trace length: %.1f per call at 5k events, %.1f at 80k",
			shortAllocs, longAllocs)
	}
}

// TestProfileResultAllocs pins a profile lookup at zero allocations: a
// served answer-cache miss is this call plus the feature vector.
func TestProfileResultAllocs(t *testing.T) {
	p := NewProfile(randomTrace(rand.New(rand.NewSource(5)), 5000), 1)
	cfg := uarch.XScale()
	cfg.Width, cfg.FreqMHz = 2, 600
	if allocs := testing.AllocsPerRun(100, func() { p.Result(cfg) }); allocs != 0 {
		t.Errorf("Profile.Result allocates %.1f times per call, want 0", allocs)
	}
}
