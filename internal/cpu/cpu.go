// Package cpu is the Xtrem-substitute performance model: a cycle-approximate
// in-order XScale-class core that replays a dynamic trace against one
// microarchitecture configuration and reports cycles plus the eleven
// performance counters of the paper's Table 1.
//
// The model charges:
//   - one issue slot per instruction (two with the extended-space dual
//     issue, subject to pairing rules);
//   - load-use and multiply/MAC latency stalls from the dependency
//     distances recorded in the trace;
//   - instruction-cache refill stalls per fetched line, data-cache refill
//     stalls per access, branch mispredictions via the BTB model;
//   - fetch-redirect bubbles on taken control flow.
package cpu

import (
	"portcc/internal/bpred"
	"portcc/internal/cache"
	"portcc/internal/isa"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// ReplayVersion is the replay-semantics version of this model: any
// change that alters the counters a given (trace, configuration) pair
// produces - timing rules, energy coefficients, counter definitions -
// must bump it. Persistent caches of simulation results (the
// content-addressed result store) key on it, so stale results from an
// older model are clean misses instead of silently wrong data.
const ReplayVersion = 1

// Result is the outcome of simulating one trace on one configuration.
type Result struct {
	Cycles uint64
	Insns  uint64

	// Instruction-cache behaviour.
	ICAccesses, ICMisses uint64
	// Data-cache behaviour.
	DCAccesses, DCMisses uint64
	// BTB behaviour.
	BTBLookups, Mispredicts uint64
	// Decoder activity: instructions decoded including wrong-path work.
	Decodes uint64
	// Register-file ports exercised.
	RegReads, RegWrites uint64
	// Functional-unit activity.
	ALUOps, MACOps, ShiftOps uint64

	// Stall decomposition (cycles), for analysis and tests.
	FetchStalls, MemStalls, DepStalls, BranchStalls uint64

	// EnergyNJ is the Cacti-style dynamic energy estimate.
	EnergyNJ float64
	// Config echoes the simulated configuration.
	Config uarch.Config
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insns) / float64(r.Cycles)
}

// TimeSeconds returns wall-clock execution time at the configured frequency.
func (r *Result) TimeSeconds() float64 {
	return float64(r.Cycles) / (float64(r.Config.FreqMHz) * 1e6)
}

// PowerMW returns the average power estimate in milliwatts.
func (r *Result) PowerMW() float64 {
	t := r.TimeSeconds()
	if t == 0 {
		return 0
	}
	return r.EnergyNJ * 1e-9 / t * 1e3
}

// Per-instruction and per-cycle core energies (nJ), calibrated to an
// XScale-class embedded core (~450 mW at 400 MHz).
const (
	coreEnergyPerInsn  = 0.35
	coreEnergyPerCycle = 0.30
)

// mispredictPenalty is the XScale branch-mispredict front-end penalty in
// cycles, on top of the refetch bubble.
const mispredictPenalty = 4

// mustCache draws a pooled cache, panicking on bad geometry (values drawn
// from the Table 2 lists are always valid).
func mustCache(sizeBytes, assoc, blockBytes int) *cache.Cache {
	c, err := cache.Get(sizeBytes, assoc, blockBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// mustBTB draws a pooled BTB, panicking on bad geometry.
func mustBTB(entries, assoc int) *bpred.BTB {
	b, err := bpred.Get(entries, assoc)
	if err != nil {
		panic(err)
	}
	return b
}

// Simulate replays the trace on the configuration. Cache and BTB state is
// drawn from package pools, so steady-state simulation is allocation-free.
// It is the reference model: every event goes through a real cache and
// BTB of this one geometry, never shared with another and never skipped
// on the strength of trace.Code, so the batch engine's shortcuts are
// tested against it rather than built into it.
func Simulate(tr *trace.Trace, cfg uarch.Config) Result {
	ic := mustCache(cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block)
	dc := mustCache(cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block)
	btb := mustBTB(cfg.BTBSize, cfg.BTBAssoc)
	defer cache.Put(ic)
	defer cache.Put(dc)
	defer bpred.Put(btb)

	il1Lat := cfg.IL1Latency()
	dl1Lat := cfg.DL1Latency()
	icPenalty := uint64(cfg.MissPenalty(cfg.IL1Block))
	dcPenalty := uint64(cfg.MissPenalty(cfg.DL1Block))
	// Stores retire through a small store buffer that hides part of the
	// refill; loads block the in-order core.
	stPenalty := dcPenalty / 2
	if stPenalty < 1 {
		stPenalty = 1
	}
	redirectBubble := uint64(il1Lat) // refetch after a taken redirect
	width := cfg.Width
	if width < 1 {
		width = 1
	}

	var res Result
	res.Config = cfg

	icBlockLg := uint32(0)
	for b := cfg.IL1Block; b > 1; b >>= 1 {
		icBlockLg++
	}

	var cycles uint64
	lastLine := ^uint32(0)
	redirected := true // first fetch touches the cache
	slotOpen := false  // dual-issue second slot available
	prevMem := false
	prevCtl := false

	for i := range tr.Events {
		ev := &tr.Events[i]
		op := isa.Op(ev.Op)

		// Fetch: one I-cache access per line transition or redirect.
		line := ev.PC >> icBlockLg
		if redirected || line != lastLine {
			res.ICAccesses++
			if !ic.Access(ev.PC) {
				res.ICMisses++
				cycles += icPenalty
				res.FetchStalls += icPenalty
			}
			if redirected {
				cycles += redirectBubble - 1
				res.FetchStalls += redirectBubble - 1
				redirected = false
			}
			lastLine = line
			slotOpen = false
		}

		// Dependency stalls: producer latency minus elapsed issue cycles.
		var stall uint64
		if ev.DistLoad != trace.NoDist {
			elapsed := (int(ev.DistLoad) + width - 1) / width
			if s := dl1Lat - elapsed; s > 0 {
				stall = uint64(s)
			}
		}
		if ev.DistFU != trace.NoDist {
			elapsed := (int(ev.DistFU) + width - 1) / width
			if s := int(ev.FULat) - elapsed; s > 0 && uint64(s) > stall {
				stall = uint64(s)
			}
		}
		if stall > 0 {
			cycles += stall
			res.DepStalls += stall
			slotOpen = false
		}

		// Issue slotting.
		pairable := width == 2 && slotOpen &&
			ev.Flags&trace.FlagDepPrev == 0 &&
			!(prevMem && op.IsMem()) && !prevCtl
		if pairable {
			slotOpen = false
		} else {
			cycles++
			slotOpen = width == 2
		}
		prevMem = op.IsMem()
		prevCtl = op.IsControl()
		res.Decodes++

		// Memory.
		if op.IsMem() {
			res.DCAccesses++
			if !dc.Access(ev.Addr) {
				res.DCMisses++
				p := dcPenalty
				if op == isa.OpStore {
					p = stPenalty
				}
				cycles += p
				res.MemStalls += p
			}
		}

		// Control.
		if ev.Flags&trace.FlagCond != 0 {
			res.BTBLookups++
			actual := ev.Flags&trace.FlagTaken != 0
			pred := btb.Predict(ev.PC)
			if btb.Resolve(ev.PC, pred, actual) {
				res.Mispredicts++
				cycles += mispredictPenalty
				res.BranchStalls += mispredictPenalty
				// Wrong-path decode activity.
				res.Decodes += uint64(mispredictPenalty * width / 2)
				redirected = true
			} else if actual {
				redirected = true
			}
		} else if op.IsControl() {
			redirected = true
		}

		// Functional-unit usage counters.
		switch {
		case op.UsesALU():
			res.ALUOps++
		case op.UsesMAC():
			res.MACOps++
		case op.UsesShifter():
			res.ShiftOps++
		}
	}

	res.Cycles = cycles
	res.Insns = uint64(len(tr.Events))
	res.RegReads = tr.RegReads
	res.RegWrites = tr.RegWrites

	res.EnergyNJ = float64(res.ICAccesses)*cfg.IL1Energy() +
		float64(res.DCAccesses)*cfg.DL1Energy() +
		float64(res.BTBLookups)*cfg.BTBEnergy() +
		float64(res.Insns)*coreEnergyPerInsn +
		float64(res.Cycles)*coreEnergyPerCycle
	return res
}
