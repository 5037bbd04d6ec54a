// Batched multi-architecture replay: SimulateBatch streams the trace's
// event array once and advances the state of every requested
// microarchitecture together, instead of one full replay per
// configuration. Results are bit-identical to per-configuration Simulate.
//
// Six structural facts of the model make the batch engine fast:
//
//  1. The trace is microarchitecture-independent, so per-event decode work
//     (operation class, flags, dependency distances) is shared by all
//     configurations instead of repeated N times. So is the fetch
//     bookkeeping: the previous fetch line depends only on the block size,
//     and the pending redirect splits into a shared part (taken branches,
//     unconditional control) plus a per-BTB-geometry part (mispredicted
//     not-taken branches), which the engine encodes as per-block bitsets.
//
//  2. Cache behaviour depends only on geometry, and true-LRU caches obey
//     the inclusion property: for a fixed set count and block size, an
//     access that hits at LRU-stack depth k hits exactly the members with
//     associativity > k. One MRU-ordered tag stack per (set count, block
//     size) therefore resolves hit/miss for every sampled associativity at
//     once (Table 2 has far fewer unique cache geometries than the 200
//     sampled architectures). Across set counts, bit-selection indexing
//     gives set-refinement inclusion (Hill & Smith, IEEE TC 1989): a
//     line's set at 2S sets fixes its set at S sets, so the lines touched
//     since its last access that share its set at 2S sets are a subset of
//     those that share it at S sets, and its depth never grows with the
//     set count. An MRU hit - the one outcome that changes no state - at
//     S sets is therefore an MRU hit at every larger set count of the
//     block size: each block size's stacks form one chain, coarsest
//     first, where a stack replays only the accesses its predecessor did
//     not answer at MRU. BTB prediction state is shared per BTB geometry.
//
//  3. For single-issue configurations (the whole Table 2 base space) every
//     instruction issues in exactly one cycle plus stalls, and each stall
//     source is a shared per-event count times a per-configuration
//     penalty, so cycles reduce to closed forms over group counters - the
//     only per-event per-configuration term, the dependency stall,
//     collapses onto a small (load-distance, FU-stall) histogram built in
//     the same pass. Dual-issue configurations (§7 extended space) reduce
//     the same way: the pairing slot is the one extra term, and it
//     factors into a configuration-independent pairability bit (dep-prev
//     flag, mem-after-mem, after-control - one shared bitset) and a
//     per-(fetch stream, load-use latency) eligibility bit (no fetch
//     this cycle, no dependency stall), so the paired count is word
//     arithmetic over an eligibility bitset shared by every width-2
//     configuration with that stream and latency: the pairing alternates
//     through a maximal run of eligible events, so those at an even
//     offset from its start pair. Both widths share one closed form,
//     whose paired count is zero at width 1 and whose histogram is
//     quantised at the configuration's width. A width outside
//     uarch.Widths (never sampled, refused by uarch.Validate) is
//     answered by Simulate itself.
//
//  4. The pass is cache-blocked: the trace is consumed in blocks of
//     blockEvents events, and each shared structure sweeps a whole block
//     before the next one runs, so its hot tag lines stay cache-resident
//     for the duration of the sweep - interleaving all geometries at
//     every event would instead evict everything continuously. The block
//     itself is decoded once into dense, prefetch-friendly lists (packed
//     PCs, memory records, branch records) that the sweeps stream over,
//     and the trace is still read from main memory once.
//
//  5. Data-cache outcomes depend on the data stream and the geometry,
//     nothing else - not on PCs, code layout, scheduling distances or
//     branch shape - and most optimisation settings of a program change
//     the code without changing its sequence of loads and stores. Given
//     a DataMemo, the first binary to issue a stream sweeps the data
//     caches and publishes every member's miss counts; every later one
//     reads them back and sets up no data-cache tag array at all.
//
//  6. A structure the trace cannot overflow never evicts, so it behaves
//     like an unbounded one. The image bounds the trace (trace.Code): its
//     code range spans L_B lines of B bytes, at most ceil(L_B/S) of which
//     share a set of an S-set cache. An IL1 stack where that bound is at
//     most its smallest member associativity is neither allocated nor
//     swept: each member's misses are the distinct lines fetched, counted
//     at the line changes its chain already visits, and the chain links
//     the remaining stacks, since fact 2's MRU filter holds between any
//     two set counts. Likewise every BTB geometry whose sets hold at most
//     assoc of the image's conditional-branch sites predicts like an
//     unbounded table; all of them share one BTB group sweep, and so do
//     the fetch streams and pairing groups keyed by it. Data lines span
//     whole stream regions, so DL1 has no such bound.
//
// The per-block sweeps are independent within three dependency waves, so
// SimulateBatchWith can fan them over a worker pool on multi-core
// machines - bit-identical under any schedule; SimulateBatch keeps the
// sequential single-core fast path.
//
// Facts 2-3 make every counter a closed form over per-geometry counts, and
// the whole base + §7 space has few geometries: 120 IL1 and 120 DL1 cache
// geometries, 20 BTB geometries, 80 fetch streams (BTB geometry, IL1
// block) and 5 load-use latencies. A Profile (profile.go) is one replay
// over a 525-configuration sample covering all of them, kept per geometry;
// its Result answers any valid configuration through the same closed form
// (assemble) a batch ends with, bit-identical to Simulate.
package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"portcc/internal/bpred"
	"portcc/internal/cache"
	"portcc/internal/isa"
	"portcc/internal/sched"
	"portcc/internal/trace"
	"portcc/internal/uarch"
)

// blockEvents is the tile size of the pass: big enough to amortise the
// per-block sweeps, small enough that a block of events plus the bitset
// scratch stays cache-resident. Must be a multiple of 64.
const blockEvents = 32768

const blockWords = blockEvents / 64

// bitset is a fixed-capacity per-block bit vector indexed by event
// position within the block.
type bitset []uint64

// simScratch recycles the batch engine's per-call working state. A
// generation sweep calls SimulateBatchWith once per compiled trace with
// the identical architecture sample, so the setup allocates the same
// sequence of arrays every time; replaying that sequence from a pooled
// arena (zeroing in place of allocating) keeps the engine allocation-flat
// like the cache/bpred pools keep Simulate. A call whose sequence differs
// (another arch batch, a fuzzed geometry set) just re-sizes the mismatched
// slots and converges. Which geometries a trace can overflow (fact 6)
// varies from trace to trace, so the sequence must not: per-block bitsets,
// all one size, and BTB tables draw from arenas of their own, and a
// fitting tag stack draws its slots empty.
type simScratch struct {
	st []batchState
	// perSet counts conditional-branch sites per BTB set (btbFits).
	perSet []uint32
	bits   slots[uint64]
	btb    slots[uint64]
	u64    slots[uint64]
	u32    slots[uint32]
	u8     slots[uint8]
}

var simScratchPool = sync.Pool{New: func() any { return new(simScratch) }}

func getSimScratch() *simScratch {
	sc := simScratchPool.Get().(*simScratch)
	sc.bits.i, sc.btb.i, sc.u64.i, sc.u32.i, sc.u8.i = 0, 0, 0, 0, 0
	return sc
}

func putSimScratch(sc *simScratch) { simScratchPool.Put(sc) }

// fitCounts is what fact 6 saved in one replay: IL1 stacks neither
// allocated nor swept, and BTB geometries answered by the shared
// no-eviction group. Tests read it to tell a shortcut that fired from
// one silently disabled.
type fitCounts struct{ il1Stacks, btbGeoms int }

// stateBuf returns a zeroed per-configuration state array.
func (sc *simScratch) stateBuf(n int) []batchState {
	if cap(sc.st) < n {
		sc.st = make([]batchState, n)
	}
	st := sc.st[:n]
	clear(st)
	return st
}

// slots replays one element type's allocation sequence: the i-th get of
// a call reuses the i-th slot of the previous call, resizing a slot
// whose capacity no longer fits.
type slots[T any] struct {
	bufs [][]T
	i    int
}

// get replays one allocation; zero clears the reused buffer (callers
// that fully overwrite or append from zero length skip the clear; fresh
// allocations are zero already).
func (s *slots[T]) get(n int, zero bool) []T {
	var b []T
	if s.i < len(s.bufs) {
		b = s.bufs[s.i]
		if cap(b) < n {
			b = make([]T, n)
			s.bufs[s.i] = b
			zero = false
		}
		b = b[:n]
		if zero {
			clear(b)
		}
	} else {
		b = make([]T, n)
		s.bufs = append(s.bufs, b)
	}
	s.i++
	return b
}

// bitset returns a zeroed per-block bit vector from the arena.
func (sc *simScratch) bitset() bitset { return bitset(sc.bits.get(blockWords, true)) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) get(i int) bool { return b[i>>6]>>(i&63)&1 != 0 }

func (b bitset) clearWords(n int) {
	for i := 0; i < n; i++ {
		b[i] = 0
	}
}

// cacheMember is one concrete cache geometry served by a shared lruStack:
// its associativity selects how deep in the stack an access may hit.
type cacheMember struct {
	assoc       int
	misses      uint64
	loadMisses  uint64 // data-cache members: misses split by op for the
	storeMisses uint64 // store-buffer penalty
}

// lruStack simulates a family of set-associative true-LRU caches sharing a
// set count and block size. The depth at which an access hits the per-set
// MRU stack decides hit/miss for every member at once, and an access only
// visits the members it misses in (sorted ascending, the scan stops at the
// first member deep enough to hit).
//
// Two recency representations back the stack, chosen by depth:
//
//   - depth <= permMaxDepth: tags live at fixed ways and the MRU->LRU
//     order is a permutation word - one 4-bit way nibble per recency
//     position packed into a uint64 per set. A hit probe is a scan of at
//     most depth contiguous tags plus a constant-time nibble search of
//     the word; the rotate-to-MRU and the miss eviction are a shift/mask
//     each, so no tag ever moves on a hit.
//
//   - deeper stacks keep the circular MRU tag list: a 32- or 64-deep
//     order does not fit a word, and the ring's probe scans in recency
//     order, which high-locality traces cut short early. A hit at depth
//     d rotates from the nearer end: either the d more recent tags shift
//     back one slot, or the n-1-d older ones (n valid) shift forward one
//     and the head steps back onto the freed slot, so no hit moves more
//     than n/2 tags.
//
// Both orderings evolve identically (proved state-for-state by
// TestPermStackMatchesRingExhaustive and fuzzed differentially against a
// naive per-member model by FuzzLRUStackVsReference).
type lruStack struct {
	lines []uint32 // sets x depth tags: fixed ways (perm) or MRU ring
	head  []uint8  // ring: per-set index of the MRU entry within its ring
	fill  []uint8  // ring: valid entries per set
	// perm, in permutation-word mode, holds each set's MRU->LRU order:
	// nibble i is the way index of the i-th most recent line.
	perm     []uint64
	depth    int  // largest member associativity (a power of two)
	permTop  uint // shift of the LRU nibble: (depth-1)*4
	permMask uint64
	setMask  uint32
	blockLg  uint32
	setBits  uint32
	members  []*cacheMember
	// fits marks an instruction stack the trace's code range cannot
	// overflow (fact 6): it has no tag store, and its chain counts its
	// members' misses.
	fits bool
	// forceRing pins the ring representation regardless of depth; the
	// equivalence tests and benchmarks use it to drive both encodings
	// over one geometry.
	forceRing bool
}

// permMaxDepth is the deepest stack a permutation word can order: 16
// way nibbles of 4 bits fill the uint64.
const permMaxDepth = 16

// nibMask[k] masks the low k nibbles of a permutation word.
var nibMask = func() (m [permMaxDepth + 1]uint64) {
	for i := 1; i <= permMaxDepth; i++ {
		m[i] = m[i-1]<<4 | 0xF
	}
	return
}()

// permIdentity is the initial MRU->LRU order: way depth-1-i at position
// i, so misses - which always evict the LRU nibble - allocate ways in
// ascending index order. Valid ways therefore always form a prefix of the
// way array, which is what lets the probe's fixed-order tag scan stop at
// the first invalid way.
func permIdentity(depth int) uint64 {
	var p uint64
	for i := 0; i < depth; i++ {
		p |= uint64(depth-1-i) << (4 * i)
	}
	return p
}

// member returns the member with the given associativity, creating it on
// first use. Must not be called after finalize.
func (s *lruStack) member(assoc int) *cacheMember {
	for _, m := range s.members {
		if m.assoc == assoc {
			return m
		}
	}
	m := &cacheMember{assoc: assoc}
	s.members = append(s.members, m)
	return m
}

// finalize sorts the members once all are registered and fixes the depth.
func (s *lruStack) finalize() {
	sort.Slice(s.members, func(a, b int) bool { return s.members[a].assoc < s.members[b].assoc })
	s.depth = s.members[len(s.members)-1].assoc
}

// codeLines returns the first line and the line count of the trace's
// code range at 1<<blockLg-byte lines; n is 0 when it declares none.
func codeLines(code *trace.Code, blockLg uint32) (first, n uint32) {
	if code.Hi <= code.Lo {
		return 0, 0
	}
	first = code.Lo >> blockLg
	return first, (code.Hi-1)>>blockLg - first + 1
}

// fitsCode reports whether no set of a finalized stack can hold more of
// the code range's lines than its smallest member associativity: n
// consecutive lines put at most ceil(n/sets) in any one set (fact 6).
func (s *lruStack) fitsCode(code *trace.Code) bool {
	_, n := codeLines(code, s.blockLg)
	return n > 0 && (uint64(n)+uint64(s.setMask))>>s.setBits <= uint64(s.members[0].assoc)
}

// alloc sizes a finalized stack's tag store; the backing arrays come
// zeroed from the call's scratch arena. Stacks up to permMaxDepth deep
// take the permutation-word representation, deeper ones the ring. A
// stack that fits the code range draws the same slots empty.
func (s *lruStack) alloc(sc *simScratch) {
	sets := int(s.setMask) + 1
	if s.fits {
		sets = 0
	}
	s.lines = sc.u32.get(sets*s.depth, true)
	if s.depth <= permMaxDepth && !s.forceRing {
		s.perm = sc.u64.get(sets, false)
		ident := permIdentity(s.depth)
		for i := range s.perm {
			s.perm[i] = ident
		}
		s.permTop = uint(s.depth-1) * 4
		s.permMask = nibMask[s.depth]
		s.head, s.fill = nil, nil
		return
	}
	s.perm = nil
	s.head = sc.u8.get(sets, true)
	s.fill = sc.u8.get(sets, true)
}

// access touches addr, updates recency, records the outcome in the
// members the hit depth reaches, and reports an MRU hit, which changes
// no state here nor later in the stack's chain (fact 2).
// Both representations live in this one function on purpose: it is the
// hottest call in the whole replay profile and too large to inline, so a
// probe must not pay a second call hop - and each stack is mono-mode, so
// the perm branch predicts perfectly.
//
// Permutation-word mode: tags sit at fixed ways and only the recency
// word changes on a hit. The probe scans the tags in way order - the
// loads carry no dependency on each other, unlike a recency-order walk,
// so they pipeline - and resolves the hit depth with a constant-time
// nibble search of the word. Valid ways always form a prefix of the way
// array (misses allocate ways in index order, see permIdentity), so the
// scan stops at the first invalid way (zero tag, which no real tag
// collides with) without a fill count, and the LRU nibble of a
// not-yet-full set is always a free way.
//
// Ring mode: invalid (zero) tags only ever occupy the tail of a set's
// list, beyond its fill count.
func (s *lruStack) access(addr uint32, isStore, isData bool) (mru bool) {
	line := addr >> s.blockLg
	set := line & s.setMask
	tag := (line >> s.setBits) + 1 // +1 so 0 means invalid, collision-free
	base := int(set) * s.depth
	buf := s.lines[base : base+s.depth]
	hitDepth := s.depth
	if s.perm != nil {
		p := s.perm[set]
		if buf[p&0xF] == tag {
			return true // MRU hit: no reordering, no member can miss at depth 0
		}
		w := -1
		for i, t := range buf {
			if t == tag {
				w = i
				break
			}
			if t == 0 {
				break // invalid prefix end reached: not resident
			}
		}
		if w >= 0 {
			// Hit at depth d = the position of way w's nibble: shift the
			// d more-recent nibbles back by one and install w at the
			// front - no tag moves.
			d := nibblePos(p, uint64(w))
			s.perm[set] = p&^nibMask[d+1] | p&nibMask[d]<<4 | uint64(w)
			hitDepth = d
		} else {
			// Miss: evict the LRU way (top nibble) and rotate it to MRU
			// - one shift/mask instead of the ring's head walk.
			v := p >> s.permTop
			s.perm[set] = (p<<4 | v) & s.permMask
			buf[v] = tag
		}
	} else {
		r := len(buf) - 1 // ring index mask
		h := int(s.head[set]) & r
		if buf[h] == tag {
			return true // MRU hit: no reordering, no member can miss at depth 0
		}
		n := int(s.fill[set])
		d := 1
		for d < n && buf[(h+d)&r] != tag {
			d++
		}
		if d < n && d <= n-1-d {
			// Hit at depth d in the front half: rotate the d entries in
			// front of it back by one and install the line at the MRU slot.
			for i := d; i > 0; i-- {
				buf[(h+i)&r] = buf[(h+i-1)&r]
			}
			buf[h] = tag
			hitDepth = d
		} else {
			if d < n {
				// Hit in the back half: pull the n-1-d older entries
				// forward one slot over it and zero the vacated tail slot,
				// then step the head back as a miss does.
				for i := d; i < n-1; i++ {
					buf[(h+i)&r] = buf[(h+i+1)&r]
				}
				buf[(h+n-1)&r] = 0
				hitDepth = d
			} else if n < s.depth {
				s.fill[set] = uint8(n + 1)
			}
			// The ring makes insertion O(1): the head steps back onto the
			// LRU slot of a full set (evicting it on a miss, the slot just
			// zeroed on a hit) or an invalid tail slot of a filling one.
			h = (h - 1) & r
			buf[h] = tag
			s.head[set] = uint8(h)
		}
	}
	for _, m := range s.members {
		if m.assoc > hitDepth {
			break
		}
		m.misses++
		if isData {
			if isStore {
				m.storeMisses++
			} else {
				m.loadMisses++
			}
		}
	}
	return false
}

// stackChain is one block size's tag stacks, set count ascending (fact
// 2): the first stack takes every access of the block, each later one
// only those its predecessor did not answer at MRU. The order is a view;
// the stacks themselves keep theirs, which dataKey hashes.
type stackChain struct {
	stacks []*lruStack
	// fits holds the block size's stacks the code range cannot overflow
	// (fact 6), answered from seen: one bit per code line, set at the
	// line's first fetch, lineBase the range's first line.
	fits            []*lruStack
	seen            bitset
	lineBase, lines uint32
	// changed is the block size's line changes, the instruction stream's
	// accesses (icStream); nil marks a data chain, which takes memList.
	changed bitset
	// live holds the surviving accesses between stages: memList indices
	// (data) or block positions into pcList (instructions).
	live []uint32
}

// chainStacks groups stacks into chains by block size; instruction chains
// take their line changes from the tracker of their block size and a
// seen-line bitset over the code range, empty when no stack fits.
func chainStacks(stacks []*lruStack, tracks []lineTrack, code *trace.Code, sc *simScratch) []stackChain {
	order := append([]*lruStack(nil), stacks...)
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if x.blockLg != y.blockLg {
			return x.blockLg < y.blockLg
		}
		if x.fits != y.fits {
			return y.fits
		}
		return x.setBits < y.setBits
	})
	var chains []stackChain
	for i, j := 0, 0; i < len(order); i = j {
		k := i // end of the simulated stacks, which sort first
		for j = i; j < len(order) && order[j].blockLg == order[i].blockLg; j++ {
			if !order[j].fits {
				k = j + 1
			}
		}
		c := stackChain{stacks: order[i:k], fits: order[k:j], live: sc.u32.get(blockEvents, false)}
		for _, lt := range tracks {
			if lt.blockLg == order[i].blockLg {
				c.changed = lt.changed
			}
		}
		if c.changed != nil {
			if len(c.fits) > 0 {
				c.lineBase, c.lines = codeLines(code, order[i].blockLg)
			}
			c.seen = bitset(sc.u64.get(int(c.lines+63)/64, true))
		}
		chains = append(chains, c)
	}
	return chains
}

// firstFetches charges each code line's first fetch to every member of
// the chain's fitting stacks: nothing evicts there (fact 6), so a line
// misses once, at the line change that first fetches it.
func (c *stackChain) firstFetches(pcList []uint32, words int) {
	blockLg := c.fits[0].blockLg
	for w := 0; w < words; w++ {
		for word := c.changed[w]; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			i := pcList[j]>>blockLg - c.lineBase
			if i >= c.lines {
				panic("cpu: fetch outside the trace's declared code range")
			}
			if c.seen.get(int(i)) {
				continue
			}
			c.seen.set(int(i))
			for _, s := range c.fits {
				for _, m := range s.members {
					m.misses++
				}
			}
		}
	}
}

// sweep replays one block through the chain. memList and pcList are the
// block's packed memory events and PCs, words its bitset length.
func (c *stackChain) sweep(memList []uint64, pcList []uint32, words int) {
	if len(c.fits) > 0 {
		c.firstFetches(pcList, words)
	}
	if len(c.stacks) == 0 {
		return
	}
	live, first := c.live[:0], c.stacks[0]
	if c.changed == nil {
		for k, mp := range memList {
			if !first.access(uint32(mp), mp>>63 != 0, true) {
				live = append(live, uint32(k))
			}
		}
	} else {
		for w := 0; w < words; w++ {
			for word := c.changed[w]; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if !first.access(pcList[j], false, false) {
					live = append(live, uint32(j))
				}
			}
		}
	}
	for _, s := range c.stacks[1:] {
		n := 0
		for _, k := range live {
			var mru bool
			if c.changed == nil {
				mp := memList[k]
				mru = s.access(uint32(mp), mp>>63 != 0, true)
			} else {
				mru = s.access(pcList[k], false, false)
			}
			if !mru {
				live[n] = k
				n++
			}
		}
		live = live[:n]
	}
}

// btbGroup is the shared branch predictor state for one BTB geometry: the
// predict/resolve stream is the trace's conditional branches, identical
// for every configuration, so the misprediction sequence depends on the
// geometry alone. The table packs each entry's tag, 2-bit counter and LRU
// stamp into one word - tag<<32 | ctr<<30 | stamp - so a whole set of up
// to eight ways occupies a single cache line, where bpred.BTB's parallel
// arrays would touch three. Behaviour is exactly bpred.BTB's.
type btbGroup struct {
	entries     []uint64
	assoc       int
	setMask     uint32
	setBits     uint32
	stamp       uint64 // 30-bit LRU clock (a trace holds far fewer branches)
	mispredicts uint64
	// dev marks the positions that raise a geometry-specific fetch
	// redirect: mispredicted not-taken branches refetch the fall-through
	// path here while geometries that predicted correctly stream on.
	dev bitset
}

const (
	btbTagShift    = 32
	btbCtrShift    = 30
	btbCtrMask     = 3 << btbCtrShift
	btbStampMask   = 1<<btbCtrShift - 1
	btbCtrInit     = 2 << btbCtrShift
	btbCtrTakenBit = 2 << btbCtrShift // counter >= 2 predicts taken
)

// step performs the fetch-time lookup and resolution of the branch at pc
// in one set scan, mirroring bpred.BTB's Predict then Resolve bit for
// bit: miss predicts not-taken, hits predict by the counter, taken
// branches allocate weakly-taken entries, and the LRU victim is the
// lowest stamp.
func (g *btbGroup) step(pc uint32, taken bool) bool {
	idx := pc >> 2
	set := idx & g.setMask
	tag := uint64(idx>>g.setBits) + 1
	base := int(set) * g.assoc
	buf := g.entries[base : base+g.assoc]
	slot := -1
	victim := 0
	oldest := buf[0] & btbStampMask
	for i := 0; i < len(buf); i++ {
		e := buf[i]
		if e>>btbTagShift == tag {
			slot = i
			break
		}
		if s := e & btbStampMask; s < oldest {
			oldest = s
			victim = i
		}
	}
	pred := false
	g.stamp++
	if slot >= 0 {
		e := buf[slot]
		pred = e&btbCtrTakenBit != 0
		ctr := e & btbCtrMask
		if taken {
			if ctr < btbCtrMask {
				ctr += 1 << btbCtrShift
			}
		} else if ctr > 0 {
			ctr -= 1 << btbCtrShift
		}
		buf[slot] = e&^(btbCtrMask|btbStampMask) | ctr | g.stamp
	} else if taken {
		buf[victim] = tag<<btbTagShift | btbCtrInit | g.stamp
	}
	return pred != taken
}

// icStream is one fetch-decision stream: which events access the
// instruction cache depends on the redirect history (through the BTB
// geometry) and the line size, so streams are keyed by (BTB geometry, IL1
// block size). A stream never touches cache state itself - a redirect to
// an unchanged fetch line refetches the line the cache just served, which
// is a guaranteed MRU hit that neither reorders the LRU stack nor misses,
// so every state-changing access happens at a line-change position. Those
// positions are BTB-independent, which is what lets the tag stacks merge
// across BTB geometries - one per (IL1 sets, IL1 block), chained per
// block size over its line changes - while streams reduce to popcount
// bookkeeping.
type icStream struct {
	btbIdx     int // index into the BTB group list (redirect deviations)
	lineIdx    int // index into the shared line trackers (per block size)
	accesses   uint64
	redirects  uint64
	redirCarry bool // pending redirect entering the current block
	// Per-block scratch: redirBits is the pending redirect at each
	// position (the previous position's outcome shifted in), accBits the
	// fetch decision redirBits | lineChanged.
	redirBits bitset
	accBits   bitset
}

// lineTrack follows the fetch line for one IL1 block size. The previous
// line is configuration-independent: whether or not a stream accessed the
// cache at an event, its last fetched line ends up being that event's.
type lineTrack struct {
	blockLg  uint32
	prevLine uint32
	changed  bitset
}

// batchState is the per-configuration view: indices into the shared
// groups and the load-use latency that picks its dependency stalls, from
// which its counts are gathered once the pass is done.
type batchState struct {
	cfg    uarch.Config
	width  int
	dl1Lat int
	icIdx  int
	btbIdx int
	pgIdx  int // pairing group (width 2 only)
	icm    *cacheMember
	dcm    *cacheMember
}

// pairGroup accumulates the paired-issue count shared by every width-2
// configuration with the same fetch stream and load-use latency: those
// two inputs are all that distinguishes their pairing-eligibility
// bitsets. pairWord counts a word's paired events; paired carries the
// slot state across word and block boundaries, where it persists.
type pairGroup struct {
	icIdx  int
	latIdx int // index into the per-latency load-stall bitsets
	pairs  uint64
	paired bool // the last event of the previous word paired
}

type icKey struct {
	btbIdx  int
	blockLg uint32
}

type stackKey struct{ setBits, blockLg uint32 }

type btbKey struct{ entries, assoc int }

// btbStep advances one BTB geometry over one packed conditional-branch
// record (pc | position<<32 | taken<<63).
func btbStep(g *btbGroup, cp uint64) {
	pc := uint32(cp)
	j := int(cp >> 32 & 0x7fffffff)
	taken := cp>>63 != 0
	if g.step(pc, taken) {
		g.mispredicts++
		if !taken {
			g.dev.set(j)
		}
	}
}

// btbFits reports whether no set of an entries x assoc BTB holds more
// than assoc of the trace's conditional-branch sites: a taken branch then
// always finds a free way, nothing is evicted, and the geometry predicts
// exactly like an unbounded table (fact 6).
func btbFits(code *trace.Code, entries, assoc int, sc *simScratch) bool {
	if code.Hi <= code.Lo {
		return false
	}
	if len(code.CondSites) <= assoc {
		return true
	}
	sets := entries / assoc
	if cap(sc.perSet) < sets {
		sc.perSet = make([]uint32, sets)
	}
	per := sc.perSet[:sets]
	clear(per)
	for _, pc := range code.CondSites {
		set := pc >> 2 & uint32(sets-1)
		if per[set]++; per[set] > uint32(assoc) {
			return false
		}
	}
	return true
}

// log2u32 is the integer base-2 logarithm of a power of two.
func log2u32(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// nibblePos returns the position of the nibble holding value w within the
// permutation word p. It is the find-first-zero-nibble trick applied to
// p XOR (w repeated into every nibble): subtraction borrows can only
// forge zero-markers above the first true zero nibble, and w occurs in p
// exactly once - below any spurious zero nibbles past the stack depth -
// so the lowest marker is exact.
func nibblePos(p, w uint64) int {
	x := p ^ w*0x1111111111111111
	return bits.TrailingZeros64((x-0x1111111111111111)&^x&0x8888888888888888) >> 2
}

// evenBits marks the even positions of a word.
const evenBits = 0x5555555555555555

// pairWord counts the paired events of one eligibility word v - those at
// an even offset from their maximal run's start, ceil(L/2) of a run of L
// - and reports whether bit 63 paired. If the previous word's last event
// paired, a run continuing into bit 0 sits at an odd offset (cont); any
// other entering run counts as one starting at bit 0. Adding a run's
// start bit ripples through it and stops at the 0 after it, so re holds
// the runs starting on even bits, which pair their even bits; the rest
// (ro, cont included) pair their odd bits. Counts add across words.
func pairWord(v uint64, paired bool) (int, bool) {
	var cont uint64
	if paired {
		cont = ((v + 1) ^ v) & v
	}
	starts := v &^ (v << 1) &^ cont
	re := ((v + starts&evenBits) ^ v) & v
	ro := v &^ re
	return bits.OnesCount64(re&evenBits) + bits.OnesCount64(ro&^evenBits), ro>>63 != 0
}

// geomBits decomposes a validated cache geometry into set and block bits,
// panicking on invalid geometry exactly as Simulate's MustNew would.
func geomBits(sizeBytes, assoc, blockBytes int) (setBits, blockLg uint32) {
	if err := cache.CheckGeometry(sizeBytes, assoc, blockBytes); err != nil {
		panic(err)
	}
	numSets := sizeBytes / (assoc * blockBytes)
	for v := numSets; v > 1; v >>= 1 {
		setBits++
	}
	for v := blockBytes; v > 1; v >>= 1 {
		blockLg++
	}
	return setBits, blockLg
}

// fsDim spans every possible functional-unit stall value: FULat and DistFU
// are bytes, so FULat-DistFU < 256.
const fsDim = 256

// parallelSweep runs f(i) for i in [0, n) over up to workers goroutines
// (resolved through the shared sched.Workers contract; <=1 runs inline
// with zero overhead). Tasks must touch pairwise-disjoint state, so the
// schedule can affect only wall-clock time, never results.
func parallelSweep(workers, n int, f func(i int)) {
	workers = sched.Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// SimulateBatch replays the trace on every configuration in one
// cache-blocked pass over the event array and returns one Result per
// configuration, in input order. Each Result is bit-identical to
// Simulate(tr, cfgs[i]).
func SimulateBatch(tr *trace.Trace, cfgs []uarch.Config) []Result {
	return SimulateBatchWith(tr, cfgs, 1)
}

// SimulateBatchWith is SimulateBatch with the independent per-geometry
// sweeps of each block - line trackers, BTB groups and data-cache chains
// first, then fetch streams and instruction-cache chains (one task per
// block size, fact 2), then the width-2 pairing groups - fanned over a
// bounded worker pool (0 = GOMAXPROCS). Sweeps within a wave touch
// disjoint state and waves barrier on their data dependencies, so any
// worker count and any schedule is bit-identical to the sequential pass;
// parallelism here multiplies with the program-level pools on multi-core
// machines. Workers <= 1 (SimulateBatch's default) keeps the sequential
// fast path.
func SimulateBatchWith(tr *trace.Trace, cfgs []uarch.Config, workers int) []Result {
	rs, _, _ := simulateBatch(tr, cfgs, workers, nil)
	return rs
}

// DataMemo holds, per data stream, the (load, store) misses of every DL1
// member of an architecture sample (fact 5). The zero value is ready and
// safe for concurrent use: nobody claims a stream, replays that reach
// the same new one at once all sweep and publish equal counts.
type DataMemo struct{ m sync.Map } // [sha256.Size]byte -> [][2]uint64

// load fills the members' miss counts from the entry under key, if any.
func (d *DataMemo) load(key [sha256.Size]byte, members []*cacheMember) bool {
	v, ok := d.m.Load(key)
	if ok {
		for i, c := range v.([][2]uint64) {
			members[i].loadMisses, members[i].storeMisses = c[0], c[1]
		}
	}
	return ok
}

// store publishes the members' miss counts under key.
func (d *DataMemo) store(key [sha256.Size]byte, members []*cacheMember) {
	counts := make([][2]uint64, len(members))
	for i, m := range members {
		counts[i] = [2]uint64{m.loadMisses, m.storeMisses}
	}
	d.m.Store(key, counts)
}

// SimulateBatchMemo is SimulateBatchWith with the data caches answered
// from memo when an earlier call published this trace's data stream
// (reused), and published to it otherwise; bit-identical either way.
func SimulateBatchMemo(tr *trace.Trace, cfgs []uarch.Config, workers int, memo *DataMemo) (rs []Result, reused bool) {
	rs, reused, _ = simulateBatch(tr, cfgs, workers, memo)
	return rs, reused
}

// dataKey names what a data-cache outcome depends on: the DL1 member
// layout of this call, in stack order - a memo never answers for another
// architecture sample - and every load and store of the whole trace as
// (op, address), position-free: a binary with more instructions between
// the same accesses hits. SHA-256, as codegen.Fingerprint.
func dataKey(dcs []*lruStack, tr *trace.Trace) (key [sha256.Size]byte) {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for _, s := range dcs {
		for _, v := range []uint32{s.setBits, s.blockLg, uint32(len(s.members))} {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
		for _, m := range s.members {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.assoc))
		}
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if !isa.Op(ev.Op).IsMem() {
			continue
		}
		if len(buf)+5 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(append(buf, ev.Op), ev.Addr)
	}
	h.Write(buf)
	h.Sum(key[:0])
	return key
}

// simulateBatch is the one engine behind the exported entry points: the
// replay, then each configuration's Result in closed form. memo (nil:
// none) answers or learns the data caches (fact 5); reused: it answered.
func simulateBatch(tr *trace.Trace, cfgs []uarch.Config, workers int, memo *DataMemo) (results []Result, reused bool, fits fitCounts) {
	if len(cfgs) == 0 {
		return nil, false, fits
	}
	results = make([]Result, len(cfgs))
	reused, fits = replay(tr, cfgs, workers, memo, func(i int, c *counts) {
		k := costsOf(&cfgs[i])
		results[i] = assemble(cfgs[i], &k, c)
	})
	for i, cfg := range cfgs {
		if cfg.Width > 2 {
			results[i] = Simulate(tr, cfg) // outside uarch.Widths: never sampled
		}
	}
	return results, reused, fits
}

// counts is what one configuration's Result is assembled from (fact 3):
// the trace's totals, which every configuration shares, then the counts
// of its geometries - IL1, DL1, BTB, its fetch stream (BTB geometry, IL1
// block) and at width 2 its pairing group (fetch stream, load-use
// latency) - and its dependency stalls, the trace's histogram folded at
// its load-use latency and width.
type counts struct {
	insns, memOps, branches, aluOps, macOps, shiftOps, regReads, regWrites uint64

	icAccesses, redirects, icMisses, loadMisses, storeMisses uint64
	mispredicts, pairs, depStalls                            uint64
}

// assemble is the closed form every batched Result ends with: each stall
// source is a shared count times the configuration's penalty, and issue
// contributes one cycle per instruction minus one per paired event. k
// holds cfg's latencies, penalties and energies (costsOf, or the
// profile's table of them).
func assemble(cfg uarch.Config, k *archCosts, c *counts) (res Result) {
	width := max(cfg.Width, 1)
	icPenalty, dcPenalty := k.icPenalty, k.dcPenalty
	stPenalty := max(dcPenalty/2, 1)
	res.Config = cfg
	res.Insns = c.insns
	res.ICAccesses = c.icAccesses
	res.ICMisses = c.icMisses
	res.DCAccesses = c.memOps
	res.DCMisses = c.loadMisses + c.storeMisses
	res.BTBLookups = c.branches
	res.Mispredicts = c.mispredicts
	res.RegReads = c.regReads
	res.RegWrites = c.regWrites
	res.ALUOps = c.aluOps
	res.MACOps = c.macOps
	res.ShiftOps = c.shiftOps

	res.FetchStalls = c.icMisses*icPenalty + c.redirects*(uint64(k.il1Lat)-1)
	res.MemStalls = c.loadMisses*dcPenalty + c.storeMisses*stPenalty
	res.BranchStalls = c.mispredicts * mispredictPenalty
	res.DepStalls = c.depStalls
	res.Cycles = c.insns - c.pairs + res.FetchStalls + res.MemStalls +
		res.DepStalls + res.BranchStalls
	res.Decodes = c.insns + c.mispredicts*uint64(mispredictPenalty*width/2)

	res.EnergyNJ = float64(res.ICAccesses)*k.il1Energy +
		float64(res.DCAccesses)*k.dl1Energy +
		float64(res.BTBLookups)*k.btbEnergy +
		float64(res.Insns)*coreEnergyPerInsn +
		float64(res.Cycles)*coreEnergyPerCycle
	return res
}

// replay runs the batched pass over cfgs and hands each configuration's
// counts to emit, in input order; a width above 2 gets none (the caller
// answers it with Simulate). The counts are valid for the call only.
func replay(tr *trace.Trace, cfgs []uarch.Config, workers int, memo *DataMemo, emit func(i int, c *counts)) (reused bool, fits fitCounts) {
	sc := getSimScratch()
	defer putSimScratch(sc)
	states := sc.stateBuf(len(cfgs))

	// Shared state, deduplicated by geometry.
	icIndex := map[icKey]int{}
	icStackIndex := map[stackKey]*lruStack{}
	dcIndex := map[stackKey]*lruStack{}
	btbIndex := map[btbKey]int{}
	lineIndex := map[uint32]int{}
	var ics []icStream
	var icStacks, dcs []*lruStack // first-seen order
	var btbs []btbGroup
	unbounded := -1 // the BTB group every no-eviction geometry shares
	var lineTracks []lineTrack
	maxDl1 := 0              // deepest load-use latency among single-issue configs
	maxDl1W := 0             // deepest load-use latency among width-2 configs
	latSet := map[int]bool{} // distinct load-use latencies among width-2 configs
	stackOf := func(index map[stackKey]*lruStack, list *[]*lruStack, setBits, blockLg uint32) *lruStack {
		k := stackKey{setBits, blockLg}
		s := index[k]
		if s == nil {
			s = &lruStack{setMask: uint32(1)<<setBits - 1, blockLg: blockLg, setBits: setBits}
			index[k] = s
			*list = append(*list, s)
		}
		return s
	}

	for i, cfg := range cfgs {
		st := &states[i]
		st.cfg = cfg
		st.width = cfg.Width
		if st.width < 1 {
			st.width = 1
		}
		st.dl1Lat = cfg.DL1Latency()

		bk := btbKey{cfg.BTBSize, cfg.BTBAssoc}
		bi, ok := btbIndex[bk]
		if !ok {
			// Geometry rules are bpred's; reject bad input the same way
			// Simulate's pooled BTB would.
			if err := bpred.CheckGeometry(cfg.BTBSize, cfg.BTBAssoc); err != nil {
				panic(err)
			}
			fit := btbFits(&tr.Code, cfg.BTBSize, cfg.BTBAssoc, sc)
			if fit {
				fits.btbGeoms++
			}
			if fit && unbounded >= 0 {
				bi = unbounded
			} else {
				sets := cfg.BTBSize / cfg.BTBAssoc
				bi = len(btbs)
				btbs = append(btbs, btbGroup{
					entries: sc.btb.get(cfg.BTBSize, true),
					assoc:   cfg.BTBAssoc,
					setMask: uint32(sets - 1),
					setBits: log2u32(uint32(sets)),
					dev:     sc.bitset(),
				})
				if fit {
					unbounded = bi
				}
			}
			btbIndex[bk] = bi
		}
		st.btbIdx = bi

		iSet, iBlk := geomBits(cfg.IL1Size, cfg.IL1Assoc, cfg.IL1Block)
		li, ok := lineIndex[iBlk]
		if !ok {
			li = len(lineTracks)
			lineTracks = append(lineTracks, lineTrack{
				blockLg: iBlk, prevLine: ^uint32(0), changed: sc.bitset(),
			})
			lineIndex[iBlk] = li
		}
		ik := icKey{bi, iBlk}
		ii, ok := icIndex[ik]
		if !ok {
			ii = len(ics)
			ics = append(ics, icStream{
				btbIdx: bi, lineIdx: li, redirCarry: true,
				redirBits: sc.bitset(), accBits: sc.bitset(),
			})
			icIndex[ik] = ii
		}
		st.icIdx = ii
		st.icm = stackOf(icStackIndex, &icStacks, iSet, iBlk).member(cfg.IL1Assoc)
		dSet, dBlk := geomBits(cfg.DL1Size, cfg.DL1Assoc, cfg.DL1Block)
		st.dcm = stackOf(dcIndex, &dcs, dSet, dBlk).member(cfg.DL1Assoc)

		switch st.width {
		case 1:
			maxDl1 = max(maxDl1, st.dl1Lat)
		case 2:
			latSet[st.dl1Lat] = true
			maxDl1W = max(maxDl1W, st.dl1Lat)
		}
	}
	// Width-2 configurations share pairing groups. Their distinct
	// load-use latencies sort descending, so the shared sweep's per-event
	// latency scan can stop at the first threshold the load distance
	// reaches.
	var lats []int
	for lat := range latSet {
		lats = append(lats, lat)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lats)))
	latIndex := map[int]int{}
	for li, lat := range lats {
		latIndex[lat] = li
	}
	var pairGroups []pairGroup
	pgIndex := map[[2]int]int{}
	for i := range states {
		st := &states[i]
		if st.width != 2 {
			continue
		}
		k := [2]int{st.icIdx, latIndex[st.dl1Lat]}
		pi, ok := pgIndex[k]
		if !ok {
			pi = len(pairGroups)
			pairGroups = append(pairGroups, pairGroup{icIdx: k[0], latIdx: k[1]})
			pgIndex[k] = pi
		}
		st.pgIdx = pi
	}
	for _, s := range icStacks {
		s.finalize()
		if s.fits = s.fitsCode(&tr.Code); s.fits {
			fits.il1Stacks++
		}
		s.alloc(sc)
	}
	icChains := chainStacks(icStacks, lineTracks, &tr.Code, sc)
	for _, s := range dcs {
		s.finalize()
	}
	// Dependency-stall histogram for the single-issue closed form:
	// hist[dl*fsDim+fs] counts events whose nearest load producer is dl
	// dynamic instructions away (dl = maxDl1 when none is close enough to
	// stall any sampled configuration) and whose functional-unit stall is
	// fs cycles. Width 1 makes both quantities configuration-independent.
	var hist []uint64
	if maxDl1 > 0 {
		hist = sc.u64.get((maxDl1+1)*fsDim, true)
	}

	// Width-2 shared structures. pairOK marks the events whose
	// configuration-independent pairing inputs allow dual issue (no
	// dep-prev flag, not a memory op after a memory op, not after
	// control); hist2 is the dependency histogram under width-2 distance
	// quantisation (elapsed = ceil(dist/2)); fu2 marks any functional-unit
	// stall (configuration-independent at a fixed width), and there is
	// one load-stall bitset per distinct load-use latency, so a group's
	// pairing eligibility is pure word arithmetic:
	// pairOK &^ (accesses | fu2 | loadLt).
	var pairOK, fu2 bitset
	var hist2 []uint64
	var loadLts []bitset
	if len(pairGroups) > 0 {
		pairOK = sc.bitset()
		fu2 = sc.bitset()
		hist2 = sc.u64.get((maxDl1W+1)*fsDim, true)
		for range lats {
			loadLts = append(loadLts, sc.bitset())
		}
	}

	// baseRedir marks positions raising the geometry-independent pending
	// redirect (taken control flow). condList and memList pack the block's
	// branch and memory events as address | position<<32 | flag<<63 so the
	// geometry sweeps read one dense, prefetchable word per event instead
	// of gathering from the event array.
	baseRedir := sc.bitset()
	condList := sc.u64.get(blockEvents, false)[:0]
	memList := sc.u64.get(blockEvents, false)[:0]
	pcList := sc.u32.get(blockEvents, false)[:0]
	var memOps, branches uint64

	// Data caches last, so a call the memo answers - no tag array, no
	// data chain in any block - draws a prefix of a sweeping call's arena
	// sequence.
	var key [sha256.Size]byte
	swept := dcs
	var dcMembers []*cacheMember // stack order, as a memo entry lists them
	if memo != nil {
		for _, s := range dcs {
			dcMembers = append(dcMembers, s.members...)
		}
		key = dataKey(dcs, tr)
		if reused = memo.load(key, dcMembers); reused {
			swept = nil
		}
	}
	for _, s := range swept {
		s.alloc(sc)
	}
	dcChains := chainStacks(swept, nil, nil, sc)
	var opCount [256]uint64

	// Per-block state shared with the sweep closures below; the closures
	// are defined once per call (not per block) so the engine's
	// allocations stay flat however long the trace is
	// (TestSimulateBatchAllocsFlat pins it).
	var (
		nb, words  int
		lastMask   uint64
		blockStart int
		// pm/pc carry the previous event's memory/control decode across
		// block boundaries for the shared pairability bits.
		pm, pc bool
	)

	// Wave 1 - line-change detection (one tight pass over the packed
	// PCs per IL1 block size), branch predictors (one fused
	// predict+resolve sweep per BTB geometry over the block's
	// conditional branches), and data caches (one chain per block size
	// over the packed memory events).
	sweepLine := func(t int) {
		lt := &lineTracks[t]
		b := lt.blockLg
		prev := lt.prevLine
		changed := lt.changed
		for j, pc := range pcList {
			line := pc >> b
			if line != prev {
				changed.set(j)
				prev = line
			}
		}
		lt.prevLine = prev
	}
	sweepBTB := func(k int) {
		g := &btbs[k]
		g.dev.clearWords(words)
		for _, cp := range condList {
			btbStep(g, cp)
		}
	}
	wave1 := func(i int) {
		switch {
		case i < len(lineTracks):
			sweepLine(i)
		case i < len(lineTracks)+len(btbs):
			sweepBTB(i - len(lineTracks))
		default:
			dcChains[i-len(lineTracks)-len(btbs)].sweep(memList, pcList, words)
		}
	}

	// Wave 2 - fetch streams (each stream's decisions are pure bit
	// arithmetic - the pending redirect is the previous position's
	// (base | deviation) outcome - folded into counters by popcount)
	// and instruction caches (every state-changing access happens at
	// a line-change position, redirect-only refetches being
	// guaranteed MRU hits, so each block size's chain replays just its
	// line changes).
	sweepIC := func(k int) {
		g := &ics[k]
		dev := btbs[g.btbIdx].dev
		carry := uint64(0)
		if g.redirCarry {
			carry = 1
		}
		for w := 0; w < words; w++ {
			v := baseRedir[w] | dev[w]
			g.redirBits[w] = v<<1 | carry
			carry = v >> 63
		}
		g.redirCarry = baseRedir.get(nb-1) || dev.get(nb-1)
		g.redirBits[words-1] &= lastMask
		changed := lineTracks[g.lineIdx].changed
		redirs := 0
		accs := 0
		for w := 0; w < words; w++ {
			a := g.redirBits[w] | changed[w]
			g.accBits[w] = a
			accs += bits.OnesCount64(a)
			redirs += bits.OnesCount64(g.redirBits[w])
		}
		g.accesses += uint64(accs)
		g.redirects += uint64(redirs)
	}
	wave2 := func(i int) {
		if i < len(ics) {
			sweepIC(i)
		} else {
			icChains[i-len(ics)].sweep(memList, pcList, words)
		}
	}

	// Wave 3 - pairing groups count the paired events of the block's
	// eligibility words (eligible events are pairable ones the
	// configuration neither fetches at nor stalls on; see pairWord).
	sweepPairs := func(k int) {
		g := &pairGroups[k]
		acc := ics[g.icIdx].accBits
		lt := loadLts[g.latIdx]
		pairs, paired := 0, g.paired
		for w := 0; w < words; w++ {
			n, p := pairWord(pairOK[w]&^(acc[w]|fu2[w]|lt[w]), paired)
			pairs, paired = pairs+n, p
		}
		g.pairs += uint64(pairs)
		g.paired = paired
	}

	for blockStart = 0; blockStart < len(tr.Events); blockStart += blockEvents {
		blockEnd := blockStart + blockEvents
		if blockEnd > len(tr.Events) {
			blockEnd = len(tr.Events)
		}
		evs := tr.Events[blockStart:blockEnd]
		nb = len(evs)
		words = (nb + 63) / 64
		// Mask for the last partial word: the carry shift below may push
		// one spurious bit past the final event.
		lastMask = ^uint64(0)
		if nb&63 != 0 {
			lastMask = 1<<(nb&63) - 1
		}

		// Shared sweep: decode every event once, filling the block's
		// index lists, redirect bits, line-change bits and histogram.
		baseRedir.clearWords(words)
		for t := range lineTracks {
			lineTracks[t].changed.clearWords(words)
		}
		if pairOK != nil {
			pairOK.clearWords(words)
			fu2.clearWords(words)
			for _, b := range loadLts {
				b.clearWords(words)
			}
		}
		condList = condList[:0]
		memList = memList[:0]
		pcList = pcList[:0]
		for j := range evs {
			ev := &evs[j]
			op := isa.Op(ev.Op)
			isCond := ev.Flags&trace.FlagCond != 0
			actual := ev.Flags&trace.FlagTaken != 0
			pcList = append(pcList, ev.PC)
			switch {
			case op == isa.OpLoad:
				memList = append(memList, uint64(ev.Addr)|uint64(j)<<32)
			case op == isa.OpStore:
				memList = append(memList, uint64(ev.Addr)|uint64(j)<<32|1<<63)
			}
			if isCond {
				k := uint64(ev.PC) | uint64(j)<<32
				if actual {
					k |= 1 << 63
				}
				condList = append(condList, k)
				if actual {
					baseRedir.set(j)
				}
			} else if op.IsControl() {
				baseRedir.set(j)
			}
			if pairOK != nil {
				isMem := op.IsMem()
				if ev.Flags&trace.FlagDepPrev == 0 && !(pm && isMem) && !pc {
					pairOK.set(j)
				}
				pm, pc = isMem, op.IsControl()
				fs2 := 0
				if ev.DistFU != trace.NoDist {
					if s := int(ev.FULat) - (int(ev.DistFU)+1)/2; s > 0 {
						fs2 = s
						fu2.set(j)
					}
				}
				dl2 := maxDl1W
				if ev.DistLoad != trace.NoDist {
					d := (int(ev.DistLoad) + 1) / 2
					if d < maxDl1W {
						dl2 = d
					}
					for li, lat := range lats {
						if d >= lat {
							break
						}
						loadLts[li].set(j)
					}
				}
				if dl2 < maxDl1W || fs2 > 0 {
					hist2[dl2*fsDim+fs2]++
				}
			}
			if hist != nil {
				dl := maxDl1
				if ev.DistLoad != trace.NoDist && int(ev.DistLoad) < maxDl1 {
					dl = int(ev.DistLoad)
				}
				fs := 0
				if ev.DistFU != trace.NoDist {
					if s := int(ev.FULat) - int(ev.DistFU); s > 0 {
						fs = s
					}
				}
				if dl < maxDl1 || fs > 0 {
					hist[dl*fsDim+fs]++
				}
			}
			opCount[ev.Op]++
		}
		memOps += uint64(len(memList))
		branches += uint64(len(condList))

		// The per-geometry sweeps touch pairwise-disjoint state, so each
		// wave fans over the worker pool (sequential at workers=1); the
		// wave boundaries are the data dependencies: fetch streams read
		// the BTB deviations and line changes, instruction chains read
		// the line changes, and the pairing groups read the fetch
		// decisions.
		parallelSweep(workers, len(lineTracks)+len(btbs)+len(dcChains), wave1)
		parallelSweep(workers, len(ics)+len(icChains), wave2)
		parallelSweep(workers, len(pairGroups), sweepPairs)
	}

	if memo != nil && !reused {
		memo.store(key, dcMembers)
	}

	var aluOps, macOps, shiftOps uint64
	for op, n := range opCount {
		if n == 0 {
			continue
		}
		switch o := isa.Op(op); {
		case o.UsesALU():
			aluOps += n
		case o.UsesMAC():
			macOps += n
		case o.UsesShifter():
			shiftOps += n
		}
	}

	c := counts{
		insns: uint64(len(tr.Events)), memOps: memOps, branches: branches,
		aluOps: aluOps, macOps: macOps, shiftOps: shiftOps,
		regReads: tr.RegReads, regWrites: tr.RegWrites,
	}
	dep1, dep2 := depStallMemo(hist, maxDl1), depStallMemo(hist2, maxDl1W)
	for i := range states {
		st := &states[i]
		if st.width > 2 {
			continue
		}
		g, bg := &ics[st.icIdx], &btbs[st.btbIdx]
		c.icAccesses, c.redirects = g.accesses, g.redirects
		c.icMisses = st.icm.misses
		c.loadMisses, c.storeMisses = st.dcm.loadMisses, st.dcm.storeMisses
		c.mispredicts = bg.mispredicts
		// The histogram quantised at the configuration's width; a paired
		// event is its width-2 pairing group's.
		if st.width == 2 {
			c.pairs, c.depStalls = pairGroups[st.pgIdx].pairs, dep2(st.dl1Lat)
		} else {
			c.pairs, c.depStalls = 0, dep1(st.dl1Lat)
		}
		emit(i, &c)
	}
	return reused, fits
}

// depStallDot folds the dependency histogram with one configuration's
// load-use latency: stall = max(dl1Lat - dl, fs) clamped at zero, exactly
// the combination Simulate computes per event at width 1.
func depStallDot(hist []uint64, maxDl1, dl1Lat int) uint64 {
	var total uint64
	for dl := 0; dl <= maxDl1; dl++ {
		loadStall := 0
		if dl < maxDl1 && dl1Lat-dl > 0 {
			loadStall = dl1Lat - dl
		}
		row := hist[dl*fsDim : (dl+1)*fsDim]
		for fs, n := range row {
			if n == 0 {
				continue
			}
			stall := loadStall
			if fs > stall {
				stall = fs
			}
			total += n * uint64(stall)
		}
	}
	return total
}

// depStallMemo folds hist once per distinct load-use latency, the one
// input the fold takes from a configuration.
func depStallMemo(hist []uint64, maxDl1 int) func(dl1Lat int) uint64 {
	memo := map[int]uint64{}
	return func(dl1Lat int) uint64 {
		d, ok := memo[dl1Lat]
		if !ok {
			d = depStallDot(hist, maxDl1, dl1Lat)
			memo[dl1Lat] = d
		}
		return d
	}
}
