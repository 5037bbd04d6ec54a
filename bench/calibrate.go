package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on is a shared one: for a minute or two at
// a time everything on it runs 10-40 % slower, then recovers. A
// 15-second measurement falls wholly inside or outside such an episode,
// so no statistic over its own samples removes it, and medians of ten
// runs taken twenty minutes apart have differed by a third. What does
// remove it is a yardstick measured beside the workload: a fixed kernel
// that touches none of the repository's code is timed before and after
// every batch operation, and the operation's time is scaled by how much
// slower than its reference the kernel ran just then (the serving loops
// send the same kernel through the server's listener as a request of
// its own, see serveload.go). The time-valued end-to-end metrics are
// therefore in reference milliseconds - what the run would have read on
// the quiet box, where the scale is 1. The readings as taken are printed
// beside them (raw_*) and kept in the -out report.
//
// A change to the system cannot move the yardstick, only the machine
// can: the kernel is arithmetic on a table private to this file.

// calibRefMS is what one kernel run reads on the quiet 2-core box the
// benchmark was written on; scale = calibRefMS / the reading now.
const calibRefMS = 23.0

// calibSteps and calibTable size the kernel: 8 M steps over 256 KB per
// processor, cache resident as the compiler's and the simulator's hot
// data are.
const (
	calibSteps = 8_000_000
	calibTable = 1 << 15
)

// calibSink keeps the kernel's result alive; atomic because workloads
// of one process (the tests' parallel ones) run kernels at the same time.
var calibSink atomic.Uint64

// calibKernel is a xorshift walk over the table with a dependent
// multiply-add per step.
func calibKernel(table []uint64, steps int) uint64 {
	x, acc := uint64(len(table)), uint64(0)
	mask := uint64(len(table) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += table[x&mask]*2654435761 + acc>>3
		table[(x>>20)&mask] = acc
	}
	return acc
}

// calibrator owns the kernel's tables, one per processor. In -smoke
// shape the kernel runs an eighth of its steps and the reading is
// multiplied back.
type calibrator struct {
	tables [][]uint64
	steps  int
}

func newCalibrator(rc *runConfig) *calibrator {
	c := &calibrator{tables: make([][]uint64, rc.procs), steps: calibSteps}
	if rc.smoke {
		c.steps /= 8
	}
	for i := range c.tables {
		c.tables[i] = make([]uint64, calibTable)
	}
	c.once() // fault the tables in
	return c
}

// once runs the kernel on every processor at the same time, as the
// workloads do, and returns the wall time in milliseconds.
func (c *calibrator) once() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, table := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibSink.Add(calibKernel(table, c.steps))
		}()
	}
	wg.Wait()
	return ms(time.Since(t0)) * calibSteps / float64(c.steps)
}

// read is the median of five runs: a stray preemption inside one or two
// of them is dropped, a slow episode shows in all five. The collection
// first keeps the workload's own garbage collector, which would
// otherwise be marking on one of the processors, out of the reading.
func (c *calibrator) read() float64 {
	runtime.GC()
	return median([]float64{c.once(), c.once(), c.once(), c.once(), c.once()})
}

// scaleBetween turns the readings taken before and after a measurement
// into the factor its times are multiplied by.
func scaleBetween(before, after float64) float64 {
	return calibRefMS / ((before + after) / 2)
}
