// Package tune sizes the two nested levels of parallelism in the
// exploration engine: the program-level fan-out (one worker-pool slot
// per grid cell or program) and the per-geometry sweep parallelism
// inside each batched replay (cpu.SimulateBatchWith). Both multiply, so
// running each at GOMAXPROCS would oversubscribe the machine quadratically;
// Split divides one CPU budget between them based on the grid shape -
// many independent outer tasks soak the machine by themselves, while a
// grid with few programs and many architectures has idle cores only the
// inner sweeps can use.
//
// The split never changes results: sweep schedules are bit-identical at
// every worker count (see cpu.SimulateBatchWith), so tuning here is purely
// a wall-clock decision.
package tune

import "runtime"

// Split divides a CPU budget (0 or negative = GOMAXPROCS) between an
// outer fan-out of up to outer independent tasks and the inner sweep
// parallelism of each, bounded by inner (the per-replay sweep width,
// typically the architecture count). The outer level claims the budget
// first - fan-out parallelises compile work (the slots of a sweep claim
// a window's settings one by one, internal/dataset/sweep.go) and trace
// generation too, which sweeps cannot - and whatever cores the fan-out
// cannot occupy (budget / outerW, at least 1) go to each task's sweeps:
//
//	many programs x few archs  -> outerW = budget, innerW = 1 (fan-out heavy)
//	few programs x many archs  -> outerW = programs, innerW = budget/programs
//
// Both results are at least 1, so they are always valid worker counts.
func Split(budget, outer, inner int) (outerW, innerW int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if outer < 1 {
		outer = 1
	}
	if inner < 1 {
		inner = 1
	}
	outerW = budget
	if outerW > outer {
		outerW = outer
	}
	innerW = budget / outerW
	if innerW > inner {
		innerW = inner
	}
	if innerW < 1 {
		innerW = 1
	}
	return outerW, innerW
}
