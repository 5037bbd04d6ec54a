package ir

import "slices"

// analysis caches the CFG facts the optimisation passes consume: reverse
// postorder, immediate dominators and natural loops.
type analysis struct {
	rpo    []int // block IDs in reverse postorder
	rpoPos []int // rpoPos[blockID] = position in rpo, -1 if unreachable
	idom   []int // immediate dominator per block, -1 for entry/unreachable
	loops  []*Loop
	loopOf []int // innermost loop index per block, -1 if none
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	// Header is the loop header block ID.
	Header int
	// Latch is the source block of the back edge.
	Latch int
	// Blocks lists the member block IDs (header first).
	Blocks []int
	// Preheader is a block outside the loop whose single successor is the
	// header and which is the header's only out-of-loop predecessor;
	// -1 when no such block exists.
	Preheader int
	// Parent is the index of the enclosing loop in Func loops, -1 if top.
	Parent int
	// Depth is the nesting depth (outermost = 1).
	Depth int
}

// Contains reports whether the loop contains block id.
func (l *Loop) Contains(id int) bool {
	for _, b := range l.Blocks {
		if b == id {
			return true
		}
	}
	return false
}

// Analyze computes (or returns cached) CFG analyses: reverse postorder,
// every block's Preds and LoopDepth, dominators and loops. They read
// nothing but the block list and the terminators' targets, so the cache
// outlives a pass that only adds, removes, reorders or rewrites
// instructions, or sets Layout, alignment or a condition register. A
// pass that retargets a terminator, changes its kind, or adds, removes
// or renumbers blocks must call Invalidate once it has.
func (f *Func) Analyze() {
	if f.analysis != nil {
		return
	}
	a := &analysis{}
	a.computeOrder(f)
	a.computeDominators(f)
	a.computeLoops(f)
	f.analysis = a
	for _, b := range f.Blocks {
		b.LoopDepth = 0
		if li := a.loopOf[b.ID]; li >= 0 {
			b.LoopDepth = a.loops[li].Depth
		}
	}
}

// RPO returns block IDs in reverse postorder (entry first). Unreachable
// blocks are omitted.
func (f *Func) RPO() []int {
	f.Analyze()
	return f.analysis.rpo
}

// Reachable reports whether block id is reachable from the entry.
func (f *Func) Reachable(id int) bool {
	f.Analyze()
	return f.analysis.rpoPos[id] >= 0
}

// Idom returns the immediate dominator of block id, or -1.
func (f *Func) Idom(id int) int {
	f.Analyze()
	return f.analysis.idom[id]
}

// Dominates reports whether block a dominates block b.
func (f *Func) Dominates(a, b int) bool {
	f.Analyze()
	for b != -1 {
		if a == b {
			return true
		}
		b = f.analysis.idom[b]
	}
	return false
}

// Loops returns the natural loops of the function, outermost first.
func (f *Func) Loops() []*Loop {
	f.Analyze()
	return f.analysis.loops
}

// computeOrder fills rpo/rpoPos and block Preds via iterative DFS.
func (a *analysis) computeOrder(f *Func) {
	n := len(f.Blocks)
	a.rpoPos = make([]int, n)
	for i := range a.rpoPos {
		a.rpoPos[i] = -1
		f.Blocks[i].Preds = f.Blocks[i].Preds[:0]
	}
	visited := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct{ id, next int }
	var succs [2]int
	stack := []frame{{id: 0}}
	visited[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if ss := f.Blocks[fr.id].Succs(succs[:0]); fr.next < len(ss) {
			s := ss[fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, fr.id)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	a.rpo = post
	for i, id := range a.rpo {
		a.rpoPos[id] = i
	}
	// Predecessors, for reachable blocks only.
	for _, id := range a.rpo {
		for _, s := range f.Blocks[id].Succs(succs[:0]) {
			f.Blocks[s].Preds = append(f.Blocks[s].Preds, id)
		}
	}
}

// computeDominators is the Cooper-Harvey-Kennedy iterative algorithm.
func (a *analysis) computeDominators(f *Func) {
	n := len(f.Blocks)
	a.idom = make([]int, n)
	for i := range a.idom {
		a.idom[i] = -1
	}
	if len(a.rpo) == 0 {
		return
	}
	entry := a.rpo[0]
	a.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, id := range a.rpo[1:] {
			b := f.Blocks[id]
			newIdom := -1
			for _, p := range b.Preds {
				if a.idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = a.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && a.idom[id] != newIdom {
				a.idom[id] = newIdom
				changed = true
			}
		}
	}
	a.idom[entry] = -1
}

func (a *analysis) intersect(b1, b2 int) int {
	for b1 != b2 {
		for a.rpoPos[b1] > a.rpoPos[b2] {
			b1 = a.idom[b1]
		}
		for a.rpoPos[b2] > a.rpoPos[b1] {
			b2 = a.idom[b2]
		}
	}
	return b1
}

// computeLoops finds natural loops from back edges (edges whose target
// dominates the source), merges loops sharing a header and derives nesting.
func (a *analysis) computeLoops(f *Func) {
	n := len(f.Blocks)
	a.loopOf = make([]int, n)
	for i := range a.loopOf {
		a.loopOf[i] = -1
	}
	byHeader := make([]int, n) // 1 + index in a.loops of the loop headed there, 0 if none
	in := make([]bool, n)      // collectLoopBody's scratch, all false between calls
	var succs [2]int
	for _, id := range a.rpo {
		for _, s := range f.Blocks[id].Succs(succs[:0]) {
			if !a.dominates(s, id) {
				continue
			}
			if byHeader[s] == 0 {
				a.loops = append(a.loops, &Loop{Header: s, Latch: id, Parent: -1, Preheader: -1})
				byHeader[s] = len(a.loops)
			}
			a.collectLoopBody(f, a.loops[byHeader[s]-1], id, in)
		}
	}
	// Nesting: loop A is inside loop B if B contains A's header and A != B.
	for i, li := range a.loops {
		for j, lj := range a.loops {
			if i == j || !lj.Contains(li.Header) {
				continue
			}
			// Choose the smallest enclosing loop as parent.
			if li.Parent == -1 || len(lj.Blocks) < len(a.loops[li.Parent].Blocks) {
				li.Parent = j
			}
		}
	}
	for _, l := range a.loops {
		d := 1
		for p := l.Parent; p != -1; p = a.loops[p].Parent {
			d++
		}
		l.Depth = d
	}
	// Innermost loop per block: deepest loop containing it.
	for i, l := range a.loops {
		for _, id := range l.Blocks {
			cur := a.loopOf[id]
			if cur == -1 || a.loops[cur].Depth < l.Depth {
				a.loopOf[id] = i
			}
		}
	}
	// Preheaders.
	for _, l := range a.loops {
		h := f.Blocks[l.Header]
		cand := -1
		ok := true
		for _, p := range h.Preds {
			if l.Contains(p) {
				continue
			}
			if cand != -1 {
				ok = false
				break
			}
			cand = p
		}
		if ok && cand != -1 && f.Blocks[cand].NumSuccs() == 1 {
			l.Preheader = cand
		}
	}
}

func (a *analysis) dominates(x, y int) bool {
	for y != -1 {
		if x == y {
			return true
		}
		y = a.idom[y]
	}
	return false
}

// collectLoopBody grows loop l with all blocks that reach the latch without
// passing through the header (the standard natural-loop body computation).
// in is all false on entry and on return.
func (a *analysis) collectLoopBody(f *Func, l *Loop, latch int, in []bool) {
	in[l.Header] = true
	for _, b := range l.Blocks {
		in[b] = true
	}
	if len(l.Blocks) == 0 {
		l.Blocks = append(l.Blocks, l.Header)
	}
	stack := []int{latch}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[id] {
			continue
		}
		in[id] = true
		l.Blocks = append(l.Blocks, id)
		stack = append(stack, f.Blocks[id].Preds...)
	}
	for _, b := range l.Blocks {
		in[b] = false
	}
}
