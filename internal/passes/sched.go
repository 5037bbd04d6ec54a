package passes

import (
	"sync"

	"portcc/internal/ir"
	"portcc/internal/isa"
)

// Assumed latencies used by the scheduler's priority function (the
// compiler's machine model; the real latency is the microarchitecture's).
const (
	schedLoadLatency = 3
	schedMulLatency  = 3
	schedMacLatency  = 4
)

// schedEagerBonus is the extra priority the list scheduler gives to loads
// (and, halved+2, to multiplies): higher values hide more latency but
// lengthen live ranges, causing spills on register-poor targets exactly as
// gcc 4.2's sched1 did. A constant: it shapes every binary, so changing
// it means bumping core.Version.
const schedEagerBonus = 2

func schedLatency(op isa.Op) int {
	switch op {
	case isa.OpLoad:
		return schedLoadLatency
	case isa.OpMul:
		return schedMulLatency
	case isa.OpMac:
		return schedMacLatency
	default:
		return 1
	}
}

// Schedule performs list scheduling within each basic block (gcc's
// -fschedule-insns): instructions are reordered by critical-path priority
// so that load and multiply results are consumed at a distance, hiding
// their latency. With interblock, single-entry successors are scheduled
// together so instructions migrate across block boundaries (gcc's
// interblock scheduling, disabled by -fno-sched-interblock); spec
// additionally allows hoisting loads above likely branches (speculative
// scheduling, disabled by -fno-sched-spec).
//
// Scheduling lengthens live ranges; the register allocator may need to
// spill as a consequence, which is the paper's observed
// scheduling/code-size interaction.
func Schedule(f *ir.Func, interblock, spec bool) {
	if f.Library {
		return
	}
	t := schedPool.Get().(*schedTables)
	n := int(f.NextReg)
	t.lastDef = grown(t.lastDef, n)
	if cap(t.usesSince) < n {
		t.usesSince = make([][]int, n)
	}
	t.usesSince = t.usesSince[:n]
	for _, b := range f.Blocks {
		t.scheduleBlock(b)
	}
	schedPool.Put(t)
	if interblock {
		hoistAcrossBlocks(f, spec)
	}
}

// schedTables is scheduleBlock's scratch, kept in schedPool like the
// value-numbering tables. The register-indexed tables are sized once per
// function and reset between blocks through touched; the rest are
// regrown per block.
type schedTables struct {
	lastDef   []int    // per register: 1 + index of its last definition, 0 if none
	usesSince [][]int  // per register: readers since that definition
	touched   []ir.Reg // registers with an entry in either table
	loads     []int    // loads since the last store
	succ      [][]int  // dependence edges i -> j (j after i)
	npred     []int
	prio      []int
	readyAt   []int
	ready     []int
	order     []int
	insns     []ir.Insn
}

var schedPool = sync.Pool{New: func() any { return new(schedTables) }}

// scheduleBlock reorders one block's instructions topologically by
// critical-path priority, preserving all data, memory and call ordering
// dependences.
func (t *schedTables) scheduleBlock(b *ir.Block) {
	n := len(b.Insns)
	if n < 3 {
		return
	}
	if cap(t.succ) < n {
		t.succ = make([][]int, n)
	}
	succ := t.succ[:n]
	for i := range succ {
		succ[i] = succ[i][:0]
	}
	npred := grown(t.npred, n)
	addEdge := func(i, j int) {
		succ[i] = append(succ[i], j)
		npred[j]++
	}

	lastDef, usesSince := t.lastDef, t.usesSince
	touch := func(r ir.Reg) {
		if lastDef[r] == 0 && len(usesSince[r]) == 0 {
			t.touched = append(t.touched, r)
		}
	}
	lastStore := -1
	lastCall := -1
	loadsSinceStore := t.loads[:0]

	for i := range b.Insns {
		in := &b.Insns[i]
		// Data deps.
		for _, u := range in.Use {
			if u == ir.RegNone {
				continue
			}
			if d := lastDef[u]; d > 0 {
				addEdge(d-1, i)
			}
			touch(u)
			usesSince[u] = append(usesSince[u], i)
		}
		if in.Def != ir.RegNone {
			// Output and anti deps (merge registers redefine).
			if d := lastDef[in.Def]; d > 0 {
				addEdge(d-1, i)
			}
			for _, u := range usesSince[in.Def] {
				if u != i {
					addEdge(u, i)
				}
			}
			touch(in.Def)
			usesSince[in.Def] = usesSince[in.Def][:0]
			lastDef[in.Def] = i + 1
		}
		// Memory and call ordering.
		switch in.Op {
		case isa.OpCall:
			for j := 0; j < i; j++ {
				addEdge(j, i) // calls are full barriers
			}
			lastCall = i
		case isa.OpStore:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i)
			}
			if lastCall >= 0 {
				addEdge(lastCall, i)
			}
			lastStore = i
			loadsSinceStore = loadsSinceStore[:0]
		case isa.OpLoad:
			if lastStore >= 0 && !in.Mem.ReadOnly {
				addEdge(lastStore, i)
			}
			if lastCall >= 0 {
				addEdge(lastCall, i)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
	}
	for _, r := range t.touched {
		lastDef[r] = 0
		usesSince[r] = usesSince[r][:0]
	}
	t.touched = t.touched[:0]
	t.loads = loadsSinceStore

	// Critical-path priorities (longest latency path to any sink), plus an
	// eagerness bonus for long-latency operations: like gcc 4.2's sched1,
	// the scheduler hoists loads and multiplies as soon as they are ready
	// to hide their latency. It is not register-pressure aware - the
	// resulting live-range growth is exactly what makes the allocator
	// spill on some schedules (the paper's Section 5.4 observation).
	prio := grown(t.prio, n)
	for i := n - 1; i >= 0; i-- {
		p := 0
		for _, j := range succ[i] {
			if prio[j] > p {
				p = prio[j]
			}
		}
		bonus := 0
		switch b.Insns[i].Op {
		case isa.OpLoad:
			bonus = schedEagerBonus
		case isa.OpMul, isa.OpMac:
			bonus = schedEagerBonus/2 + 2
		}
		prio[i] = p + schedLatency(b.Insns[i].Op) + bonus
	}

	// Cycle-driven list scheduling: an instruction is a candidate once its
	// dependences are satisfied, and preferred once its operands are
	// *ready* (producer latency elapsed). Among ready candidates the
	// highest priority wins; if none is ready, the candidate closest to
	// ready issues (the hardware would stall there anyway). Original
	// order breaks ties for determinism.
	readyAt := grown(t.readyAt, n)
	ready := t.ready[:0]
	for i := 0; i < n; i++ {
		if npred[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := t.order[:0]
	cycle := 0
	for len(ready) > 0 {
		best := -1
		bestReady := false
		for _, i := range ready {
			isReady := readyAt[i] <= cycle
			switch {
			case best == -1:
				best, bestReady = i, isReady
			case isReady && !bestReady:
				best, bestReady = i, true
			case isReady == bestReady:
				if prio[i] > prio[best] || (prio[i] == prio[best] && i < best) {
					best = i
				}
			}
		}
		// Remove best from the ready list.
		for k, i := range ready {
			if i == best {
				ready = append(ready[:k], ready[k+1:]...)
				break
			}
		}
		if readyAt[best] > cycle {
			cycle = readyAt[best]
		}
		order = append(order, best)
		issued := cycle
		cycle++
		for _, j := range succ[best] {
			if t := issued + schedLatency(b.Insns[best].Op); t > readyAt[j] {
				readyAt[j] = t
			}
			npred[j]--
			if npred[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	t.succ, t.npred, t.prio, t.readyAt, t.ready, t.order = succ, npred, prio, readyAt, ready, order
	if len(order) != n {
		return // cycle would be a bug; leave the block unscheduled
	}
	t.insns = append(t.insns[:0], b.Insns...)
	for pos, idx := range order {
		b.Insns[pos] = t.insns[idx]
	}
}

// hoistAcrossBlocks migrates ready head instructions of single-predecessor
// successors into their predecessor. Non-speculative when the predecessor
// falls or jumps unconditionally; speculative (requires spec) above
// conditional branches, following the likely edge.
func hoistAcrossBlocks(f *ir.Func, spec bool) {
	f.Analyze() // predecessor lists must be fresh
	const maxHoist = 4
	// Registers defined by instructions remaining in b; all false
	// between blocks.
	defined := make([]bool, f.NextReg)
	for _, a := range f.Blocks {
		var bID int
		speculative := false
		switch a.Term.Kind {
		case ir.TermFall:
			bID = a.Term.Fall
		case ir.TermJump:
			bID = a.Term.Taken
		case ir.TermBranch:
			if !spec {
				continue
			}
			speculative = true
			if edgeProb(a.Term) >= 0.5 {
				bID = a.Term.Taken
			} else {
				bID = a.Term.Fall
			}
		default:
			continue
		}
		b := f.Blocks[bID]
		if len(b.Preds) != 1 || b.ID == a.ID {
			continue
		}
		for i := range b.Insns {
			if d := b.Insns[i].Def; d != ir.RegNone {
				defined[d] = true
			}
		}
		hoisted := 0
		for hoisted < maxHoist && len(b.Insns) > 0 {
			in := b.Insns[0]
			if !in.IsPure() || in.HasFlag(ir.FlagMerge) {
				break
			}
			if in.Op == isa.OpLoad && speculative && !spec {
				break
			}
			depends := false
			for _, u := range in.Use {
				if u != ir.RegNone && defined[u] && u != in.Def {
					depends = true
					break
				}
			}
			if depends {
				break
			}
			a.Insns = append(a.Insns, in)
			defined[in.Def] = false
			b.Insns = b.Insns[1:]
			hoisted++
		}
		for i := range b.Insns {
			defined[b.Insns[i].Def] = false
		}
	}
}

// Regmove forwards register copies (gcc's -fregmove): uses of a
// single-definition register defined by a copy are rewritten to the copy's
// source, making the move dead. Returns the number of moves removed.
func Regmove(f *ir.Func) int {
	if f.Library {
		return 0
	}
	defs := singleDefs(f)
	repl := make([]ir.Reg, f.NextReg)
	moves := 0
	for _, b := range f.Blocks {
		for i := range b.Insns {
			in := &b.Insns[i]
			if in.Op != isa.OpMove || in.HasFlag(ir.FlagMerge) {
				continue
			}
			src := in.Use[0]
			if src == ir.RegNone || !defs[in.Def].single() {
				continue
			}
			// Forward only single-def sources so the value cannot change
			// between the move and the rewritten uses.
			if !defs[src].single() {
				continue
			}
			repl[in.Def] = src
			moves++
		}
	}
	if moves == 0 {
		return 0
	}
	applyReplacements(f, repl)
	return deadCode(f)
}
