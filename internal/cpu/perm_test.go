package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// newTestStack builds a finalized lruStack over its own scratch arena with
// one member per associativity in assocs.
func newTestStack(setBits, blockLg uint32, assocs []int, ring bool) (*lruStack, *simScratch) {
	sc := getSimScratch()
	return newStackIn(sc, setBits, blockLg, assocs, ring), sc
}

// newStackIn is newTestStack over a shared arena.
func newStackIn(sc *simScratch, setBits, blockLg uint32, assocs []int, ring bool) *lruStack {
	s := &lruStack{setMask: uint32(1)<<setBits - 1, blockLg: blockLg, setBits: setBits, forceRing: ring}
	for _, a := range assocs {
		s.member(a)
	}
	s.finalize()
	s.alloc(sc)
	return s
}

// mruOrder extracts a set's tags in MRU->LRU order from either
// representation - the state both encodings must agree on step for step.
func (s *lruStack) mruOrder(set uint32) []uint32 {
	buf := s.lines[int(set)*s.depth : int(set)*s.depth+s.depth]
	out := make([]uint32, s.depth)
	if s.perm != nil {
		p := s.perm[set]
		for i := range out {
			out[i] = buf[p>>(4*i)&0xF]
		}
		return out
	}
	h := int(s.head[set])
	for i := range out {
		out[i] = buf[(h+i)&(s.depth-1)]
	}
	return out
}

// memberCounts flattens the per-member counters for comparison.
func (s *lruStack) memberCounts() []uint64 {
	var out []uint64
	for _, m := range s.members {
		out = append(out, m.misses, m.loadMisses, m.storeMisses)
	}
	return out
}

// assocsUpTo returns every power-of-two associativity <= depth, the
// maximally discriminating member set: together the members resolve the
// hit depth to its power-of-two bucket, and the MRU order pins the rest.
func assocsUpTo(depth int) []int {
	var out []int
	for a := 1; a <= depth; a <<= 1 {
		out = append(out, a)
	}
	return out
}

// runPair drives the same access through a perm-word stack and a ring
// stack and asserts identical member counters and identical MRU order in
// the touched set after every single access.
type stackPair struct {
	t          *testing.T
	perm, ring *lruStack
	scP, scR   *simScratch
}

func newStackPair(t *testing.T, setBits, blockLg uint32, depth int) *stackPair {
	assocs := assocsUpTo(depth)
	p, scP := newTestStack(setBits, blockLg, assocs, false)
	r, scR := newTestStack(setBits, blockLg, assocs, true)
	if p.perm == nil {
		t.Fatalf("depth %d stack did not take the permutation-word mode", depth)
	}
	if r.perm != nil {
		t.Fatal("forceRing stack took the permutation-word mode")
	}
	return &stackPair{t: t, perm: p, ring: r, scP: scP, scR: scR}
}

func (sp *stackPair) close() {
	putSimScratch(sp.scP)
	putSimScratch(sp.scR)
}

func (sp *stackPair) access(addr uint32, isStore bool, ctx string) {
	sp.perm.access(addr, isStore, true)
	sp.ring.access(addr, isStore, true)
	set := (addr >> sp.perm.blockLg) & sp.perm.setMask
	po, ro := sp.perm.mruOrder(set), sp.ring.mruOrder(set)
	for i := range po {
		if po[i] != ro[i] {
			sp.t.Fatalf("%s: MRU order diverged in set %d at depth %d: perm %v ring %v",
				ctx, set, i, po, ro)
		}
	}
	pc, rc := sp.perm.memberCounts(), sp.ring.memberCounts()
	for i := range pc {
		if pc[i] != rc[i] {
			sp.t.Fatalf("%s: member counters diverged: perm %v ring %v", ctx, pc, rc)
		}
	}
}

// permutations enumerates all orderings of n elements (Heap's algorithm),
// invoking f with each.
func permutations(n int, f func(p []int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	if n > 0 {
		rec(n)
	}
}

// TestPermStackMatchesRingExhaustive pins the nibble arithmetic of the
// permutation-word encoding against the ring it replaced, state for
// state: for every (setBits, assoc in {1,2,4,8}) geometry, every
// permutation of depth distinct tags is driven twice through one set -
// the first pass fills the set and the second probes every recency depth
// of a full set - asserting identical MRU order and identical per-member
// miss counters after each access. Small enough to enumerate completely
// (8! permutations at depth 8), so any probe, rotate or eviction
// disagreement between the encodings has a minimal witness here.
func TestPermStackMatchesRingExhaustive(t *testing.T) {
	const blockLg = 2
	for _, setBits := range []uint32{0, 1, 2} {
		for _, depth := range []int{1, 2, 4, 8} {
			permutations(depth, func(order []int) {
				sp := newStackPair(t, setBits, blockLg, depth)
				defer sp.close()
				ctx := fmt.Sprintf("setBits=%d depth=%d order=%v", setBits, depth, order)
				// Interleave a second set's accesses so two sets evolve
				// side by side.
				other := uint32(1) % (sp.perm.setMask + 1)
				for pass := 0; pass < 2; pass++ {
					for i, tg := range order {
						addr := uint32(tg+1) << (setBits + blockLg)
						sp.access(addr, i%2 == 1, ctx)
						if sp.perm.setMask > 0 {
							sp.access(addr|other<<blockLg, false, ctx)
						}
					}
				}
			})
		}
	}
}

// TestPermStackAllSequences complements the permutation sweep with every
// access sequence of length 6 over an alphabet one tag larger than the
// stack depth, so hits at every depth, repeated probes of one line and
// conflict evictions of a full set all occur, including patterns a
// permutation (distinct tags) cannot express.
func TestPermStackAllSequences(t *testing.T) {
	const blockLg, seqLen = 2, 6
	for _, depth := range []int{1, 2, 4} {
		alphabet := depth + 1
		total := 1
		for i := 0; i < seqLen; i++ {
			total *= alphabet
		}
		for code := 0; code < total; code++ {
			sp := newStackPair(t, 1, blockLg, depth)
			c := code
			for i := 0; i < seqLen; i++ {
				tg := c % alphabet
				c /= alphabet
				addr := uint32(tg+1)<<(1+blockLg) | uint32(i%2)<<blockLg
				sp.access(addr, tg%2 == 0, fmt.Sprintf("depth=%d code=%d step=%d", depth, code, i))
			}
			sp.close()
		}
	}
}

// benchmarkLRUAccess isolates the shared stack's probe/rotate on a
// locality-heavy synthetic address stream (mostly short sequential runs
// with occasional jumps, like real fetch/data streams), so the old ring
// and the new permutation word can be compared on identical work:
//
//	go test -run NONE -bench BenchmarkLRUAccess ./internal/cpu
func benchmarkLRUAccess(b *testing.B, depth int, ring bool) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 15
	addrs := make([]uint32, n)
	var addr uint32
	for i := range addrs {
		if rng.Intn(8) == 0 {
			addr = uint32(rng.Intn(1<<18)) &^ 3
		} else {
			addr += 4 << uint(rng.Intn(3))
		}
		addrs[i] = addr
	}
	s, sc := newTestStack(6, 5, assocsUpTo(depth), ring)
	defer putSimScratch(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.access(addrs[i&(n-1)], false, true)
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	for _, depth := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("perm/depth%d", depth), func(b *testing.B) { benchmarkLRUAccess(b, depth, false) })
		b.Run(fmt.Sprintf("ring/depth%d", depth), func(b *testing.B) { benchmarkLRUAccess(b, depth, true) })
	}
	// Past permMaxDepth only the ring exists; keep its number visible so
	// a future word encoding for deep stacks has a baseline.
	b.Run("ring/depth64", func(b *testing.B) { benchmarkLRUAccess(b, 64, true) })
}

// TestPermStackDeepFallback pins the mode choice: a family whose deepest
// member exceeds permMaxDepth must keep the ring, and mixed-depth
// families up to 16 take the word.
func TestPermStackDeepFallback(t *testing.T) {
	deep, sc := newTestStack(2, 5, []int{4, 32}, false)
	if deep.perm != nil {
		t.Errorf("depth-32 stack took the permutation-word mode")
	}
	putSimScratch(sc)
	wide, sc2 := newTestStack(2, 5, []int{4, 16}, false)
	if wide.perm == nil {
		t.Errorf("depth-16 stack did not take the permutation-word mode")
	}
	putSimScratch(sc2)
}
